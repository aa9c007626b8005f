//! An Aho–Corasick multi-pattern automaton.
//!
//! This is the algorithmic heart of both the Pigasus string-matching
//! accelerator model and the Snort CPU baseline: given a rule set's "fast
//! patterns", it finds every occurrence of every pattern in a byte stream in
//! a single pass. Built from scratch (goto/fail/output construction) — no
//! external matching crates.

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

/// Rows per state: one transition per byte value.
const ROW: usize = 256;

/// No trie edge, no child, no sibling.
const NONE: u32 = u32::MAX;

/// A trie state while the automaton is built.
struct TrieState {
    /// Pattern ids ending here, in insertion order.
    own: Vec<u32>,
    fail: usize,
    /// Whether this state or one on its fail chain ends a pattern.
    has_out: bool,
    /// The byte on the edge into this state.
    byte: u8,
    first_child: u32,
    sibling: u32,
}

impl TrieState {
    fn new(byte: u8, sibling: u32) -> Self {
        Self {
            own: Vec::new(),
            fail: 0,
            has_out: false,
            byte,
            first_child: NONE,
            sibling,
        }
    }
}

/// The compiled automaton: one flat transition table with one 256-entry row
/// per state.
///
/// Every entry is the target state premultiplied by 256 — the offset of its
/// row — so a scan step is one load, `state = trans[state + byte]`. States
/// with outputs are numbered last, so the match test is one compare of the
/// value just loaded against `match_from`. Their pattern ids sit in one CSR
/// pair (`out_start`, `out_ids`): a state's own ids in insertion order, then
/// the ids it inherits through its fail links, nearest first.
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
    trans: Vec<u32>,
    /// First premultiplied state with outputs.
    match_from: usize,
    /// `out_ids[out_start[i]..out_start[i + 1]]` are the outputs of the
    /// `i`-th state with outputs.
    out_start: Vec<u32>,
    out_ids: Vec<u32>,
}

impl AhoCorasick {
    /// Builds the automaton from `patterns` using the classic
    /// goto/fail/output construction, then compiles fail links into dense
    /// next-state rows so matching is one table lookup per byte — the
    /// access pattern the hardware engines implement in URAM.
    ///
    /// # Panics
    ///
    /// Panics if a pattern is empty, or if the trie needs more than 2^24
    /// states (a 16 GiB table), the most a premultiplied `u32` state can
    /// address.
    pub fn build(patterns: &[Pattern]) -> Self {
        // Goto function: a trie of all patterns. `goto` holds one dense row
        // per trie state (NONE where there is no edge) for lookups; each
        // state also lists its children, so the passes below walk edges.
        let mut goto = vec![NONE; ROW];
        let mut trie = vec![TrieState::new(0, NONE)];
        for pattern in patterns {
            // `Pattern::new` refuses these; the fields are public.
            assert!(!pattern.bytes.is_empty(), "empty patterns match everywhere");
            let mut state = 0usize;
            for &byte in &pattern.bytes {
                let slot = state * ROW + usize::from(byte);
                if goto[slot] == NONE {
                    let child = trie.len();
                    goto[slot] = child as u32;
                    goto.resize(goto.len() + ROW, NONE);
                    trie.push(TrieState::new(byte, trie[state].first_child));
                    trie[state].first_child = child as u32;
                }
                state = goto[slot] as usize;
            }
            trie[state].own.push(pattern.id);
        }
        let states = trie.len();
        assert!(states <= 1 << 24, "automaton exceeds 2^24 states");

        // Fail links in BFS order: a child's fail target is where its
        // parent's fail chain first has an edge on the child's byte. A fail
        // target is shallower than its state, so its output flag is final.
        let mut order = Vec::with_capacity(states);
        order.push(0);
        let mut head = 0;
        while let Some(&state) = order.get(head) {
            head += 1;
            let mut child = trie[state].first_child;
            while child != NONE {
                let c = child as usize;
                let byte = usize::from(trie[c].byte);
                let mut fail = 0;
                if state != 0 {
                    let mut f = trie[state].fail;
                    fail = loop {
                        match goto[f * ROW + byte] {
                            NONE if f == 0 => break 0,
                            NONE => f = trie[f].fail,
                            g => break g as usize,
                        }
                    };
                }
                trie[c].fail = fail;
                trie[c].has_out = !trie[c].own.is_empty() || trie[fail].has_out;
                order.push(c);
                child = trie[c].sibling;
            }
        }

        // Number the states without outputs first (the root stays 0), then
        // those with outputs, each group in BFS order.
        let match_states = trie.iter().filter(|t| t.has_out).count();
        let match_from = (states - match_states) * ROW;
        let (mut plain, mut matching) = (0, match_from);
        let mut renamed = vec![0u32; states];
        for &s in &order {
            let next = if trie[s].has_out {
                &mut matching
            } else {
                &mut plain
            };
            renamed[s] = *next as u32;
            *next += ROW;
        }

        // Each row is its fail target's row (final, as that state is
        // shallower) with the state's own trie edges written over it; the
        // root's row starts at 0, the root. Outputs are a state's own ids,
        // then those along its fail chain, nearest first.
        let mut trans = vec![0u32; states * ROW];
        let mut out_start = vec![0u32];
        let mut out_ids = Vec::new();
        for &s in &order {
            let row = renamed[s] as usize;
            if s != 0 {
                let from = renamed[trie[s].fail] as usize;
                trans.copy_within(from..from + ROW, row);
            }
            let mut child = trie[s].first_child;
            while child != NONE {
                let c = &trie[child as usize];
                trans[row + usize::from(c.byte)] = renamed[child as usize];
                child = c.sibling;
            }
            if trie[s].has_out {
                let mut f = s;
                while f != 0 {
                    out_ids.extend_from_slice(&trie[f].own);
                    f = trie[f].fail;
                }
                out_start.push(out_ids.len() as u32);
            }
        }

        Self {
            trans,
            match_from,
            out_start,
            out_ids,
        }
    }

    /// Size of the dense transition table in bytes, 1 KiB per state — what
    /// the hardware model maps onto URAM blocks (§7.1.2: the large lookup
    /// tables that would not fit without URAM).
    pub fn table_bytes(&self) -> usize {
        self.trans.len() * std::mem::size_of::<u32>()
    }

    /// Finds all matches in `haystack`, in end-position order; at one end
    /// position, longer patterns first, equal ones in insertion order.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.scan(haystack, |m| out.push(m));
        out
    }

    /// Streaming scan calling `on_match` for each hit, in the order of
    /// [`find_all`](Self::find_all). This is what both the hardware model
    /// and the CPU baseline use.
    pub fn scan<F: FnMut(Match)>(&self, haystack: &[u8], on_match: F) {
        self.scan_from(0, haystack, on_match);
    }

    /// Resumable scan for cross-packet matching: feeds `haystack` starting
    /// from automaton state `state`, returns the final state.
    ///
    /// The state is opaque: pass 0 (the start state) or a value an earlier
    /// `scan_from` on this automaton returned.
    ///
    /// # Panics
    ///
    /// Panics if `state` is neither.
    pub fn scan_from<F: FnMut(Match)>(&self, state: u32, haystack: &[u8], mut on_match: F) -> u32 {
        let mut state = state as usize;
        assert!(
            state.is_multiple_of(ROW) && state < self.trans.len(),
            "{state} is not a state of this automaton"
        );
        for (pos, &byte) in haystack.iter().enumerate() {
            state = self.trans[state + usize::from(byte)] as usize;
            if state >= self.match_from {
                let i = (state - self.match_from) / ROW;
                let ids = &self.out_ids[self.out_start[i] as usize..self.out_start[i + 1] as usize];
                for &id in ids {
                    on_match(Match { id, end: pos });
                }
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
    #[should_panic(expected = "empty")]
    fn empty_pattern_literal_rejected_by_build() {
        let _ = AhoCorasick::build(&[Pattern {
            id: 1,
            bytes: Vec::new(),
        }]);
    }

    #[test]
    #[should_panic(expected = "not a state")]
    fn scan_from_rejects_a_foreign_state() {
        let ac = AhoCorasick::build(&[Pattern::new(1, b"x")]);
        ac.scan_from(3, b"x", |_| {});
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
