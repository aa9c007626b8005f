//! A Snort-lite rule language and synthetic rule-set generation.
//!
//! Pigasus compiles Snort rules' "fast patterns" into its string-matching
//! engines; the paper's test benches parse rule files with `idstools` and
//! craft matching attack packets (Appendix A.4, D). This module provides the
//! equivalent: a parser for the subset of Snort syntax the fast-pattern path
//! uses (`content`, ports, `sid`), a deterministic synthetic rule-set
//! generator, and attack-trace crafting from a rule set.

use rosebud_accel::{Rule, RuleSet};
use rosebud_kernel::SimRng;
use rosebud_net::{Packet, PacketBuilder};

/// Errors from [`parse_rules`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// 1-based line number.
    pub(crate) line: usize,
    /// What went wrong.
    pub(crate) message: String,
}

impl std::fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rule line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RuleParseError {}

/// Parses a Snort-lite rule file. Supported shape:
///
/// ```text
/// alert tcp any any -> any 80 (msg:"worm"; content:"evil payload"; sid:2001;)
/// ```
///
/// `content` accepts `|xx xx|` hex escapes. Lines starting with `#` and
/// blank lines are skipped. Only the fast-pattern-relevant parts (first
/// `content`, destination/source port when not `any`, `sid`) are kept —
/// exactly the information the Pigasus engines consume.
///
/// # Errors
///
/// Returns [`RuleParseError`] for rules without `content` or `sid`, or with
/// malformed hex escapes.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, RuleParseError> {
    let mut rules = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| RuleParseError {
            line: line_no,
            message,
        };
        let open = line
            .find('(')
            .ok_or_else(|| err("missing option block".into()))?;
        let close = line
            .rfind(')')
            .ok_or_else(|| err("unclosed option block".into()))?;
        let header: Vec<&str> = line[..open].split_whitespace().collect();
        // action proto src sport -> dst dport
        if header.len() < 7 {
            return Err(err(format!(
                "header needs 7 fields, found {}",
                header.len()
            )));
        }
        let src_port = header[3].parse::<u16>().ok();
        let dst_port = header[6].parse::<u16>().ok();

        let mut content: Option<Vec<u8>> = None;
        let mut sid: Option<u32> = None;
        for option in line[open + 1..close].split(';') {
            let option = option.trim();
            if let Some(value) = option.strip_prefix("content:") {
                if content.is_none() {
                    let value = value.trim().trim_matches('"');
                    content = Some(decode_content(value).map_err(err)?);
                }
            } else if let Some(value) = option.strip_prefix("sid:") {
                sid = value.trim().parse::<u32>().ok();
            }
        }
        let pattern = content.ok_or_else(|| err("rule has no content option".into()))?;
        let sid = sid.ok_or_else(|| err("rule has no sid".into()))?;
        if pattern.is_empty() {
            return Err(err("empty content".into()));
        }
        let mut rule = Rule::new(sid, &pattern);
        if let Some(p) = src_port {
            rule = rule.with_src_port(p);
        }
        if let Some(p) = dst_port {
            rule = rule.with_dst_port(p);
        }
        rules.push(rule);
    }
    Ok(rules)
}

/// Decodes a Snort content string with `|xx xx|` hex sections.
fn decode_content(s: &str) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let mut rest = s;
    let mut in_hex = false;
    while !rest.is_empty() {
        match rest.find('|') {
            Some(at) => {
                let (chunk, tail) = rest.split_at(at);
                if in_hex {
                    for tok in chunk.split_whitespace() {
                        let byte = u8::from_str_radix(tok, 16)
                            .map_err(|_| format!("bad hex byte `{tok}`"))?;
                        out.push(byte);
                    }
                } else {
                    out.extend_from_slice(chunk.as_bytes());
                }
                in_hex = !in_hex;
                rest = &tail[1..];
            }
            None => {
                if in_hex {
                    return Err("unterminated hex section".into());
                }
                out.extend_from_slice(rest.as_bytes());
                rest = "";
            }
        }
    }
    Ok(out)
}

/// Generates `n` deterministic synthetic rules with distinct patterns of
/// 6–18 bytes, ~40 % carrying a destination-port constraint — a stand-in
/// for the registered Snort ruleset Pigasus ships with.
pub fn synthetic_rules(n: usize, seed: u64) -> Vec<Rule> {
    let mut rng = SimRng::seed_from(seed);
    let mut rules = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    while rules.len() < n {
        let len = 6 + rng.below(13) as usize;
        // Patterns drawn from printable bytes so they read like real
        // signatures and never collide with zero padding.
        let pattern: Vec<u8> = (0..len).map(|_| 33 + rng.below(94) as u8).collect();
        if !seen.insert(pattern.clone()) {
            continue;
        }
        let sid = 2_000_000 + rules.len() as u32;
        let mut rule = Rule::new(sid, &pattern);
        if rng.chance(0.4) {
            rule = rule.with_dst_port([80u16, 443, 25, 21, 8080][rng.below(5) as usize]);
        }
        rules.push(rule);
    }
    rules
}

/// Compiles rules into a [`RuleSet`] (string automaton + port matcher).
pub fn compile(rules: Vec<Rule>) -> RuleSet {
    RuleSet::compile(rules)
}

/// Crafts one attack packet per rule: a TCP packet to the rule's port (or
/// 80) whose payload embeds the rule's pattern — the paper's
/// `attack_pcap` generation (Appendix D).
pub fn attack_trace(rules: &[Rule], size: usize) -> Vec<Packet> {
    let mut trace = Vec::new();
    for (i, rule) in rules.iter().enumerate() {
        let dst_port = rule.dst_port.unwrap_or(80);
        let src_port = rule.src_port.unwrap_or(40_000 + (i % 20_000) as u16);
        let mut payload = vec![b'.'; size.saturating_sub(54).max(rule.pattern.len())];
        let at = (i * 13) % (payload.len() - rule.pattern.len() + 1);
        payload[at..at + rule.pattern.len()].copy_from_slice(&rule.pattern);
        trace.push(
            PacketBuilder::new()
                .src_ip([10, 9, (i >> 8) as u8, i as u8])
                .dst_ip([172, 16, 1, 1])
                .tcp(src_port, dst_port)
                .payload(&payload)
                .port((i % 2) as u8)
                .build_with(i as u64, 0),
        );
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_rule() {
        let rules =
            parse_rules(r#"alert tcp any any -> any 80 (msg:"worm"; content:"evil"; sid:2001;)"#)
                .unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].id, 2001);
        assert_eq!(rules[0].pattern, b"evil");
        assert_eq!(rules[0].dst_port, Some(80));
        assert_eq!(rules[0].src_port, None);
    }

    #[test]
    fn parses_hex_content() {
        let rules =
            parse_rules(r#"alert udp any 53 -> any any (content:"A|0d 0a|B"; sid:7;)"#).unwrap();
        assert_eq!(rules[0].pattern, b"A\r\nB");
        assert_eq!(rules[0].src_port, Some(53));
        assert_eq!(rules[0].dst_port, None);
    }

    #[test]
    fn rejects_rule_without_sid() {
        let e = parse_rules(r#"alert tcp any any -> any any (content:"x";)"#).unwrap_err();
        assert!(e.message.contains("sid"));
    }

    #[test]
    fn rejects_bad_hex() {
        let e =
            parse_rules(r#"alert tcp any any -> any any (content:"|zz|"; sid:1;)"#).unwrap_err();
        assert!(e.message.contains("hex"));
    }

    #[test]
    fn synthetic_rules_compile_and_match_their_attack_trace() {
        let rules = synthetic_rules(100, 11);
        let set = compile(rules.clone());
        let trace = attack_trace(&rules, 512);
        let mut matched = 0;
        for (pkt, rule) in trace.iter().zip(&rules) {
            let tcp = pkt.tcp().unwrap();
            let ids = set.matches(pkt.payload().unwrap(), tcp.src_port, tcp.dst_port);
            assert!(
                ids.contains(&rule.id),
                "rule {} not found in its own attack packet",
                rule.id
            );
            matched += 1;
        }
        assert_eq!(matched, 100);
    }

    #[test]
    fn clean_payloads_do_not_match_synthetic_rules() {
        let set = compile(synthetic_rules(200, 12));
        // Zero padding can never contain printable-byte patterns.
        let clean = vec![0u8; 1024];
        assert!(set.matches(&clean, 1000, 80).is_empty());
    }
}
