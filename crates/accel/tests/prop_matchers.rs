//! Property tests on the accelerator models: the Aho–Corasick automaton
//! agrees with a naive matcher on arbitrary inputs, in the exact order it
//! reports matches; the cycle-level MPSE model produces exactly the
//! functional match set; the firewall matcher agrees with direct prefix
//! comparison.

use proptest::prelude::*;
use rosebud_accel::{
    Accelerator, AhoCorasick, FirewallMatcher, Match, Pattern, PigasusMatcher, Rule, RuleSet,
    FW_MATCH_REG, FW_SRC_IP_REG, PIG_CTRL_REG, PIG_DMA_ADDR_REG, PIG_DMA_LEN_REG, PIG_MATCH_REG,
    PIG_RULE_ID_REG, PIG_SLOT_REG,
};

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
    out.sort_by_key(|m| (m.end, m.id));
    out
}

fn pattern_set() -> impl Strategy<Value = Vec<Pattern>> {
    proptest::collection::vec(
        proptest::collection::vec(0u8..4, 1..6), // tiny alphabet: overlaps likely
        1..8,
    )
    .prop_map(|patterns| {
        patterns
            .into_iter()
            .enumerate()
            .map(|(i, bytes)| Pattern::new(i as u32 + 1, &bytes))
            .collect()
    })
}

/// The naive matcher in the order the automaton reports: by end position,
/// then longer patterns first, then insertion order.
fn naive_ordered(patterns: &[Pattern], haystack: &[u8]) -> Vec<Match> {
    let mut out: Vec<(usize, Match)> = Vec::new();
    for pos in 0..haystack.len() {
        for (index, p) in patterns.iter().enumerate() {
            if pos + 1 >= p.len() && haystack[pos + 1 - p.len()..=pos] == p.bytes[..] {
                out.push((index, Match { id: p.id, end: pos }));
            }
        }
    }
    out.sort_by_key(|&(index, m)| (m.end, std::cmp::Reverse(patterns[index].len()), index));
    out.into_iter().map(|(_, m)| m).collect()
}

/// Patterns over the full byte range, about half of them cut from
/// `haystack` (at `start % len`, up to `len` bytes) so that matches occur,
/// often several ending at one position.
fn cut_patterns(specs: Vec<(bool, usize, usize, Vec<u8>)>, haystack: &[u8]) -> Vec<Pattern> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (cut, start, len, random))| {
            let id = i as u32 + 1;
            if cut && !haystack.is_empty() {
                let start = start % haystack.len();
                let end = (start + len).min(haystack.len());
                Pattern::new(id, &haystack[start..end])
            } else {
                Pattern::new(id, &random)
            }
        })
        .collect()
}

fn pattern_specs() -> impl Strategy<Value = Vec<(bool, usize, usize, Vec<u8>)>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            0usize..64,
            1usize..8,
            proptest::collection::vec(any::<u8>(), 1..6),
        ),
        1..10,
    )
}

proptest! {
    #[test]
    fn automaton_reports_naive_matches_in_order_over_all_bytes(
        haystack in proptest::collection::vec(any::<u8>(), 0..96),
        specs in pattern_specs(),
    ) {
        let patterns = cut_patterns(specs, &haystack);
        let ac = AhoCorasick::build(&patterns);
        prop_assert_eq!(ac.find_all(&haystack), naive_ordered(&patterns, &haystack));
    }

    #[test]
    fn split_scan_equals_whole_scan_over_all_bytes(
        haystack in proptest::collection::vec(any::<u8>(), 0..96),
        specs in pattern_specs(),
        split in 0usize..97,
    ) {
        let split = split % (haystack.len() + 1);
        let patterns = cut_patterns(specs, &haystack);
        let ac = AhoCorasick::build(&patterns);
        let mut chunked = Vec::new();
        let state = ac.scan_from(0, &haystack[..split], |m| chunked.push(m));
        ac.scan_from(state, &haystack[split..], |m| {
            chunked.push(Match { id: m.id, end: m.end + split });
        });
        prop_assert_eq!(chunked, ac.find_all(&haystack));
    }

    #[test]
    fn automaton_agrees_with_naive_matcher(
        patterns in pattern_set(),
        haystack in proptest::collection::vec(0u8..4, 0..200),
    ) {
        let ac = AhoCorasick::build(&patterns);
        let mut got = ac.find_all(&haystack);
        got.sort_by_key(|m| (m.end, m.id));
        prop_assert_eq!(got, naive(&patterns, &haystack));
    }

    #[test]
    fn chunked_scan_equals_whole_scan(
        patterns in pattern_set(),
        haystack in proptest::collection::vec(0u8..4, 1..200),
        split in 0usize..200,
    ) {
        let split = split % haystack.len();
        let ac = AhoCorasick::build(&patterns);
        let whole: Vec<u32> = ac.find_all(&haystack).iter().map(|m| m.id).collect();
        let mut chunked = Vec::new();
        let state = ac.scan_from(0, &haystack[..split], |m| chunked.push(m.id));
        ac.scan_from(state, &haystack[split..], |m| chunked.push(m.id));
        prop_assert_eq!(whole, chunked);
    }

    #[test]
    fn mpse_model_finds_exactly_the_functional_matches(
        patterns in pattern_set(),
        payload in proptest::collection::vec(0u8..4, 1..300),
        engines in 1u32..32,
    ) {
        let rules: Vec<Rule> = patterns
            .iter()
            .map(|p| Rule::new(p.id, &p.bytes))
            .collect();
        let set = RuleSet::compile(rules);
        let expected = set.matches(&payload, 1000, 80);
        let mut m = PigasusMatcher::new(set, engines);
        let mut pmem = vec![0u8; 4096];
        pmem[64..64 + payload.len()].copy_from_slice(&payload);
        m.write_reg(PIG_DMA_ADDR_REG, 64);
        m.write_reg(PIG_DMA_LEN_REG, payload.len() as u32);
        m.write_reg(PIG_SLOT_REG, 3);
        m.write_reg(PIG_CTRL_REG, 1);
        let mut got = Vec::new();
        for _ in 0..10_000 {
            m.tick(&pmem);
            while m.read_reg(PIG_MATCH_REG).value != 0 {
                let id = m.read_reg(PIG_RULE_ID_REG).value;
                m.write_reg(PIG_CTRL_REG, 2);
                if id == 0 {
                    prop_assert_eq!(&got, &expected);
                    return Ok(());
                }
                got.push(id);
            }
        }
        prop_assert!(false, "matcher never produced EoP");
    }

    #[test]
    fn firewall_agrees_with_prefix_comparison(
        prefixes in proptest::collection::vec(any::<[u8; 4]>(), 1..64),
        probe in any::<[u8; 4]>(),
    ) {
        let mut fw = FirewallMatcher::from_prefixes(&prefixes);
        let expected = prefixes
            .iter()
            .any(|p| p[..3] == probe[..3]); // 24-bit prefix match
        fw.write_reg(FW_SRC_IP_REG, u32::from_le_bytes(probe));
        fw.tick(&[]);
        fw.tick(&[]);
        prop_assert_eq!(fw.read_reg(FW_MATCH_REG).value == 1, expected);
    }

    #[test]
    fn port_constraints_are_respected(
        dst_port in any::<u16>(),
        probe_port in any::<u16>(),
    ) {
        let set = RuleSet::compile(vec![Rule::new(5, b"zz").with_dst_port(dst_port)]);
        let ids = set.matches(b"azza", 1, probe_port);
        prop_assert_eq!(!ids.is_empty(), probe_port == dst_port);
    }
}
