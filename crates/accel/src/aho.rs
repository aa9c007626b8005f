//! An Aho–Corasick multi-pattern automaton.
//!
//! This is the algorithmic heart of both the Pigasus string-matching
//! accelerator model and the Snort CPU baseline: given a rule set's "fast
//! patterns", it finds every occurrence of every pattern in a byte stream in
//! a single pass. Built from scratch (goto/fail/output construction) — no
//! external matching crates.

use std::collections::VecDeque;

/// A pattern to search for, tagged with its rule identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    /// Rule identifier reported on match (non-zero; 0 is the EoP sentinel in
    /// the accelerator register protocol, Appendix B).
    pub id: u32,
    /// The literal bytes to find.
    pub bytes: Vec<u8>,
}

impl Pattern {
    /// Creates a pattern.
    ///
    /// # Panics
    ///
    /// Panics if `id` is zero (reserved for end-of-processing) or `bytes` is
    /// empty.
    pub fn new(id: u32, bytes: &[u8]) -> Self {
        assert!(id != 0, "pattern id 0 is reserved for the EoP sentinel");
        assert!(!bytes.is_empty(), "empty patterns match everywhere");
        Self {
            id,
            bytes: bytes.to_vec(),
        }
    }

    /// Pattern length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Always `false`; patterns cannot be empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A match: which pattern ended at which byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Match {
    /// The matched pattern's rule id.
    pub id: u32,
    /// Byte offset of the *last* byte of the match (the cycle the hardware
    /// engine reports the hit).
    pub end: usize,
}

#[derive(Debug, Clone)]
struct Node {
    /// Dense transition table (256-way). u32::MAX means "no edge" before
    /// fail-link compilation; after compilation every slot is a state.
    next: Box<[u32; 256]>,
    /// Pattern ids ending at this node (own + inherited via fail links).
    outputs: Vec<u32>,
}

impl Node {
    fn new() -> Self {
        Self {
            next: Box::new([u32::MAX; 256]),
            outputs: Vec::new(),
        }
    }
}

/// The compiled automaton.
///
/// # Examples
///
/// ```
/// use rosebud_accel::{AhoCorasick, Pattern};
/// let ac = AhoCorasick::build(&[Pattern::new(7, b"abc")]);
/// assert_eq!(ac.find_all(b"xxabcxx")[0].id, 7);
/// assert_eq!(ac.find_all(b"xxabcxx")[0].end, 4);
/// ```
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    nodes: Vec<Node>,
    pattern_count: usize,
    table_bytes: usize,
}

impl AhoCorasick {
    /// Builds the automaton from `patterns` using the classic
    /// goto/fail/output construction, then compiles fail links into dense
    /// next-state tables so matching is one table lookup per byte — the
    /// access pattern the hardware engines implement in URAM.
    pub fn build(patterns: &[Pattern]) -> Self {
        let mut nodes = vec![Node::new()];

        // Goto function: a trie of all patterns.
        for pattern in patterns {
            let mut state = 0usize;
            for &byte in &pattern.bytes {
                let slot = nodes[state].next[byte as usize];
                state = if slot == u32::MAX {
                    nodes.push(Node::new());
                    let new_state = (nodes.len() - 1) as u32;
                    nodes[state].next[byte as usize] = new_state;
                    new_state as usize
                } else {
                    slot as usize
                };
            }
            nodes[state].outputs.push(pattern.id);
        }

        // Fail links via BFS, immediately compiled into the dense tables:
        // after this loop, next[b] is total (never u32::MAX).
        let mut fail = vec![0u32; nodes.len()];
        let mut queue = VecDeque::new();
        for byte in 0..256 {
            let slot = nodes[0].next[byte];
            if slot == u32::MAX {
                nodes[0].next[byte] = 0;
            } else {
                fail[slot as usize] = 0;
                queue.push_back(slot);
            }
        }
        while let Some(state) = queue.pop_front() {
            let state = state as usize;
            let f = fail[state] as usize;
            // Inherit outputs from the fail target.
            let inherited: Vec<u32> = nodes[f].outputs.clone();
            nodes[state].outputs.extend(inherited);
            for byte in 0..256 {
                let slot = nodes[state].next[byte];
                let via_fail = nodes[f].next[byte];
                if slot == u32::MAX {
                    nodes[state].next[byte] = via_fail;
                } else {
                    fail[slot as usize] = via_fail;
                    queue.push_back(slot);
                }
            }
        }

        let table_bytes = nodes.len() * (256 * 4);
        Self {
            nodes,
            pattern_count: patterns.len(),
            table_bytes,
        }
    }

    /// Number of patterns compiled in.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Size of the dense transition tables in bytes — what the hardware
    /// model maps onto URAM blocks (§7.1.2: the large lookup tables that
    /// would not fit without URAM).
    pub fn table_bytes(&self) -> usize {
        self.table_bytes
    }

    /// Finds all matches in `haystack`, in end-position order.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.scan(haystack, |m| out.push(m));
        out
    }

    /// Streaming scan calling `on_match` for each hit, in end-position
    /// order. This is what both the hardware model and the CPU baseline use.
    pub fn scan<F: FnMut(Match)>(&self, haystack: &[u8], mut on_match: F) {
        let mut state = 0usize;
        for (pos, &byte) in haystack.iter().enumerate() {
            state = self.nodes[state].next[byte as usize] as usize;
            for &id in &self.nodes[state].outputs {
                on_match(Match { id, end: pos });
            }
        }
    }

    /// Resumable scan for cross-packet matching: feeds `haystack` starting
    /// from automaton state `state`, returns the final state.
    pub fn scan_from<F: FnMut(Match)>(&self, state: u32, haystack: &[u8], mut on_match: F) -> u32 {
        let mut state = state as usize;
        for (pos, &byte) in haystack.iter().enumerate() {
            state = self.nodes[state].next[byte as usize] as usize;
            for &id in &self.nodes[state].outputs {
                on_match(Match { id, end: pos });
            }
        }
        state as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(patterns: &[Pattern], haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        for pos in 0..haystack.len() {
            for p in patterns {
                if pos + 1 >= p.bytes.len() {
                    let start = pos + 1 - p.bytes.len();
                    if haystack[start..=pos] == p.bytes[..] {
                        out.push(Match { id: p.id, end: pos });
                    }
                }
            }
        }
        out
    }

    fn sorted(mut v: Vec<Match>) -> Vec<Match> {
        v.sort_by_key(|m| (m.end, m.id));
        v
    }

    #[test]
    fn single_pattern() {
        let ac = AhoCorasick::build(&[Pattern::new(1, b"needle")]);
        let hits = ac.find_all(b"hay needle hay needle");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].end, 9);
        assert_eq!(hits[1].end, 20);
    }

    #[test]
    fn overlapping_patterns() {
        let patterns = [
            Pattern::new(1, b"he"),
            Pattern::new(2, b"she"),
            Pattern::new(3, b"his"),
            Pattern::new(4, b"hers"),
        ];
        let ac = AhoCorasick::build(&patterns);
        let hits = sorted(ac.find_all(b"ushers"));
        // Classic example: "she" and "he" end at 3, "hers" at 5.
        assert_eq!(
            hits,
            vec![
                Match { id: 1, end: 3 },
                Match { id: 2, end: 3 },
                Match { id: 4, end: 5 }
            ]
        );
    }

    #[test]
    fn matches_equal_naive_on_fixed_cases() {
        let patterns = [
            Pattern::new(1, b"ab"),
            Pattern::new(2, b"abab"),
            Pattern::new(3, b"b"),
            Pattern::new(4, b"aaa"),
        ];
        let ac = AhoCorasick::build(&patterns);
        for haystack in [
            &b"abababab"[..],
            b"aaaa",
            b"",
            b"xyz",
            b"bbbbab",
            b"abaabab",
        ] {
            assert_eq!(
                sorted(ac.find_all(haystack)),
                sorted(naive(&patterns, haystack)),
                "haystack {haystack:?}"
            );
        }
    }

    #[test]
    fn duplicate_pattern_ids_both_fire() {
        let ac = AhoCorasick::build(&[Pattern::new(1, b"x"), Pattern::new(2, b"x")]);
        let hits = ac.find_all(b"x");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn resumable_scan_matches_across_chunks() {
        let ac = AhoCorasick::build(&[Pattern::new(9, b"split")]);
        let mut hits = Vec::new();
        let state = ac.scan_from(0, b"this is spl", |m| hits.push(m));
        assert!(hits.is_empty());
        ac.scan_from(state, b"it across packets", |m| hits.push(m));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 9);
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::build(&[Pattern::new(1, &[0x00, 0xff, 0x00])]);
        let haystack = [0xde, 0x00, 0xff, 0x00, 0xad];
        assert_eq!(ac.find_all(&haystack).len(), 1);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_id_rejected() {
        let _ = Pattern::new(0, b"x");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_pattern_rejected() {
        let _ = Pattern::new(1, b"");
    }
}
