//! Lockstep twins for the accelerator horizon: a `FirewallMatcher` or a
//! `PigasusMatcher` that [`Accelerator::skip`]s `k` cycles inside its
//! horizon must be indistinguishable from one ticked `k` times — every
//! later register read (value and wait-states), `is_busy` and the horizon
//! itself — whatever register traffic brought it there and whatever traffic
//! follows. A bounded horizon must also be tight enough to be worth
//! nothing more: one tick past it, a result is visible.

use proptest::prelude::*;
use rosebud_accel::{
    Accelerator, FirewallMatcher, PigasusMatcher, RegRead, Rule, RuleSet, FW_MATCH_REG,
    FW_SRC_IP_REG, PIG_CTRL_REG, PIG_DMA_ADDR_REG, PIG_DMA_LEN_REG, PIG_DMA_STAT_REG,
    PIG_MATCH_REG, PIG_PORTS_REG, PIG_RULE_ID_REG, PIG_SLOT_REG,
};

/// The blacklist every twin carries: two /24s, so about half the generated
/// addresses match.
const BLACKLIST: [[u8; 4]; 2] = [[203, 0, 113, 0], [198, 51, 100, 0]];

/// One access from the core's side, or one clock cycle.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { offset: u32, value: u32 },
    Read { offset: u32 },
    Tick,
}

/// A register offset: the two the matcher decodes, and one it ignores.
fn offset() -> impl Strategy<Value = u32> {
    prop_oneof![Just(FW_SRC_IP_REG), Just(FW_MATCH_REG), Just(0x08u32)]
}

/// A source address as firmware loads it with `lw`: on the blacklist or
/// next to it.
fn ip() -> impl Strategy<Value = u32> {
    (0usize..2, 0u8..2, any::<u8>()).prop_map(|(entry, miss, host)| {
        let [a, b, c, _] = BLACKLIST[entry];
        u32::from_le_bytes([a, b, c + miss, host])
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (offset(), ip()).prop_map(|(offset, value)| Op::Write { offset, value }),
        offset().prop_map(|offset| Op::Read { offset }),
        Just(Op::Tick),
    ]
}

/// Applies `op`, returning what a read answered.
fn apply(fw: &mut FirewallMatcher, op: Op) -> Option<RegRead> {
    match op {
        Op::Write { offset, value } => {
            fw.write_reg(offset, value);
            None
        }
        Op::Read { offset } => Some(fw.read_reg(offset)),
        Op::Tick => {
            fw.tick(&[]);
            None
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// From any state the generated `prefix` reaches (ticked on until its
    /// lookup, if any, is done and the horizon covers `k`), `skip(k)` then
    /// `suffix` answers exactly as `k` ticks then `suffix`.
    #[test]
    fn skipping_inside_the_horizon_equals_ticking_through_it(
        prefix in proptest::collection::vec(op(), 0..24),
        k in 1u64..300,
        suffix in proptest::collection::vec(op(), 0..24),
    ) {
        let mut fw = FirewallMatcher::from_prefixes(&BLACKLIST);
        for &op in &prefix {
            apply(&mut fw, op);
        }
        let mut settling = 0;
        while fw.horizon() < k {
            prop_assert!(fw.is_busy(), "an idle matcher must have no bounded horizon");
            prop_assert!(settling < 2, "a lookup takes two cycles");
            fw.tick(&[]);
            settling += 1;
        }
        let (mut skipped, mut ticked) = (fw.clone(), fw);
        skipped.skip(k);
        for _ in 0..k {
            ticked.tick(&[]);
        }
        prop_assert_eq!(skipped.is_busy(), ticked.is_busy());
        prop_assert_eq!(skipped.horizon(), ticked.horizon());
        for (i, &op) in suffix.iter().enumerate() {
            let (a, b) = (apply(&mut skipped, op), apply(&mut ticked, op));
            prop_assert_eq!(a, b, "suffix op {} ({:?}) after skip({})", i, op, k);
            prop_assert_eq!(skipped.is_busy(), ticked.is_busy(), "after suffix op {}", i);
            prop_assert_eq!(skipped.horizon(), ticked.horizon(), "after suffix op {}", i);
        }
    }
}

/// The horizon is what the property leans on: unbounded while idle, none
/// while a lookup is in flight, and unbounded again once it resolves.
#[test]
fn a_pending_lookup_closes_the_horizon_until_it_resolves() {
    let mut fw = FirewallMatcher::from_prefixes(&BLACKLIST);
    assert_eq!(fw.horizon(), u64::MAX);
    fw.write_reg(FW_SRC_IP_REG, u32::from_le_bytes([203, 0, 113, 9]));
    assert_eq!(fw.horizon(), 0);
    fw.skip(0);
    fw.tick(&[]);
    assert_eq!(fw.horizon(), 0);
    fw.tick(&[]);
    assert_eq!(fw.horizon(), u64::MAX);
    assert_eq!(fw.read_reg(FW_MATCH_REG), RegRead::fast(1));
}

/// One step of the core's side of a `PigasusMatcher`, or of the clock.
#[derive(Debug, Clone, Copy)]
enum PigOp {
    /// Stage a job's registers and kick it (`ACC_PIG_CTRL = 1`).
    Kick {
        addr: u32,
        len: u32,
        ports: u32,
        slot: u32,
    },
    /// Release the head result (`ACC_PIG_CTRL = 2`).
    Release,
    Read {
        offset: u32,
    },
    Tick,
    /// Skip `1 + seed % horizon` cycles on one twin, tick them on the other
    /// (nothing when the horizon is 0).
    Skip {
        seed: u64,
    },
}

/// Payload bytes: a small alphabet, so short patterns hit often.
const ALPHABET: [u8; 3] = *b"abx";

/// The packet memory the jobs scan.
const PMEM_BYTES: usize = 512;

/// A register the core reads: the four the matcher decodes and one it
/// ignores.
fn pig_read_offset() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(PIG_MATCH_REG),
        Just(PIG_RULE_ID_REG),
        Just(PIG_SLOT_REG),
        Just(PIG_DMA_STAT_REG),
        Just(0x30u32),
    ]
}

fn pig_op() -> impl Strategy<Value = PigOp> {
    // Jobs start anywhere in packet memory or past it (an empty scan), and
    // reach past its end or not; the ports decide which rules may fire.
    let kick = (0u32..600, 0u32..320, 0u32..4, 0u32..32).prop_map(|(addr, len, p, slot)| {
        let src = if p & 1 == 0 { 1234 } else { 6666 };
        let dst = if p & 2 == 0 { 80 } else { 443 };
        PigOp::Kick {
            addr,
            len,
            ports: src << 16 | dst,
            slot,
        }
    });
    prop_oneof![
        kick,
        Just(PigOp::Release),
        pig_read_offset().prop_map(|offset| PigOp::Read { offset }),
        Just(PigOp::Tick),
        any::<u64>().prop_map(|seed| PigOp::Skip { seed }),
        any::<u64>().prop_map(|seed| PigOp::Skip { seed }),
    ]
}

/// One to five rules over the payload alphabet, some port-bound.
fn rules() -> impl Strategy<Value = Vec<Rule>> {
    let rule = (proptest::collection::vec(0usize..3, 1..5), 0u8..4);
    proptest::collection::vec(rule, 1..6).prop_map(|drawn| {
        drawn
            .into_iter()
            .enumerate()
            .map(|(i, (pattern, ports))| {
                let pattern: Vec<u8> = pattern.into_iter().map(|b| ALPHABET[b]).collect();
                let rule = Rule::new(i as u32 + 1, &pattern);
                match ports {
                    0 => rule.with_dst_port(80),
                    1 => rule.with_src_port(6666),
                    _ => rule,
                }
            })
            .collect()
    })
}

fn pmem() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0usize..3, PMEM_BYTES..PMEM_BYTES + 1)
        .prop_map(|bytes| bytes.into_iter().map(|b| ALPHABET[b]).collect())
}

/// Everything the core or the fabric can ask a matcher: every register
/// (value and wait-states), `is_busy` and the horizon. Reads change nothing.
fn pig_view(m: &mut PigasusMatcher) -> (Vec<RegRead>, bool, u64) {
    let regs = [
        PIG_MATCH_REG,
        PIG_RULE_ID_REG,
        PIG_SLOT_REG,
        PIG_DMA_STAT_REG,
        0x30,
    ];
    let reads = regs.iter().map(|&r| m.read_reg(r)).collect();
    (reads, m.is_busy(), m.horizon())
}

/// Applies a non-clock `op` to `m`, returning what a read answered.
fn pig_apply(m: &mut PigasusMatcher, op: PigOp, pmem: &[u8]) -> Option<RegRead> {
    match op {
        PigOp::Kick {
            addr,
            len,
            ports,
            slot,
        } => {
            m.write_reg(PIG_DMA_ADDR_REG, addr);
            m.write_reg(PIG_DMA_LEN_REG, len);
            m.write_reg(PIG_PORTS_REG, ports);
            m.write_reg(PIG_SLOT_REG, slot);
            m.write_reg(PIG_CTRL_REG, 1);
        }
        PigOp::Release => m.write_reg(PIG_CTRL_REG, 2),
        PigOp::Read { offset } => return Some(m.read_reg(offset)),
        PigOp::Tick => m.tick(pmem),
        PigOp::Skip { .. } => unreachable!("the twins take skips apart"),
    }
    None
}

/// Runs `ops` on two matchers built alike: at each `Skip` one skips `k`
/// cycles inside its horizon and the other ticks them, and after every op
/// the two must read alike. At each skip, a copy of the ticked one is
/// ticked through the horizon — nothing may become visible — and one tick
/// past it, when it is bounded, where a result must. Returns the skips
/// taken and the cycles they covered.
fn pig_twins(
    rules: Vec<Rule>,
    engines: u32,
    pmem: &[u8],
    ops: &[PigOp],
) -> Result<(u32, u64), TestCaseError> {
    let mut skipped = PigasusMatcher::new(RuleSet::compile(rules), engines);
    let mut ticked = skipped.clone();
    let (mut skips, mut covered) = (0, 0);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            PigOp::Skip { seed } => {
                let h = ticked.horizon();
                if h == 0 {
                    continue;
                }
                if h != u64::MAX {
                    let mut probe = ticked.clone();
                    for t in 0..h {
                        probe.tick(pmem);
                        prop_assert_eq!(
                            probe.read_reg(PIG_MATCH_REG).value,
                            0,
                            "tick {} of {}",
                            t + 1,
                            h
                        );
                    }
                    probe.tick(pmem);
                    prop_assert_ne!(probe.read_reg(PIG_MATCH_REG).value, 0);
                }
                let k = 1 + seed % h.min(400);
                skipped.skip(k);
                for _ in 0..k {
                    ticked.tick(pmem);
                }
                (skips, covered) = (skips + 1, covered + k);
            }
            op => {
                let (a, b) = (
                    pig_apply(&mut skipped, op, pmem),
                    pig_apply(&mut ticked, op, pmem),
                );
                prop_assert_eq!(a, b, "op {} ({:?})", i, op);
            }
        }
        prop_assert_eq!(
            pig_view(&mut skipped),
            pig_view(&mut ticked),
            "after op {} ({:?})",
            i,
            op
        );
    }
    Ok((skips, covered))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Drawn rule sets, payloads, engine counts and kick, release, read and
    /// tick sequences, with skips anywhere in them.
    #[test]
    fn a_skipping_matcher_reads_like_one_ticked_through_its_horizon(
        rules in rules(),
        engines in 1u32..17,
        pmem in pmem(),
        ops in proptest::collection::vec(pig_op(), 0..80),
    ) {
        pig_twins(rules, engines, &pmem, &ops)?;
    }
}

/// The matcher's horizon, step by step: unbounded while idle, closed by a
/// queued job, the stream up to the first match, closed while a result is
/// visible, the stream up to end-of-packet, unbounded again.
#[test]
fn a_matchers_horizon_runs_to_each_result() {
    let mut m = PigasusMatcher::new(RuleSet::compile(vec![Rule::new(7, b"ab")]), 16);
    let mut pmem = vec![b'x'; PMEM_BYTES];
    pmem[100..102].copy_from_slice(b"ab");
    assert_eq!(m.horizon(), u64::MAX);
    pig_apply(
        &mut m,
        PigOp::Kick {
            addr: 0,
            len: 300,
            ports: 0,
            slot: 3,
        },
        &pmem,
    );
    assert_eq!(m.horizon(), 0, "the next tick starts the job");
    m.tick(&pmem);
    // pos 16: the match ending at 101 surfaces at pos 112, 6 ticks on.
    assert_eq!(m.horizon(), 5);
    m.skip(5);
    m.tick(&pmem);
    assert_eq!(m.read_reg(PIG_RULE_ID_REG).value, 7);
    assert_eq!(m.horizon(), 0, "a visible result");
    m.write_reg(PIG_CTRL_REG, 2);
    // pos 112 of 300: end-of-packet at pos 300, ⌈188 / 16⌉ = 12 ticks on.
    assert_eq!(m.horizon(), 11);
    m.skip(11);
    assert!(m.is_busy());
    m.tick(&pmem);
    assert_eq!(m.read_reg(PIG_MATCH_REG).value, 1);
    assert_eq!(m.read_reg(PIG_RULE_ID_REG).value, 0, "end-of-packet");
    m.write_reg(PIG_CTRL_REG, 2);
    assert_eq!(m.horizon(), u64::MAX);
    assert!(!m.is_busy());
}

/// A payload that opens with nothing but matches fills the 32-entry result
/// FIFO, whose backpressure stalls the stream: the horizon stays closed
/// through the stall, and as results drain the stream resumes, to stretches
/// with no match in them — the twins agree all the way to end-of-packet.
#[test]
fn a_full_result_fifo_stalls_the_stream_and_the_twins_agree_through_it() {
    let mut pmem = vec![b'x'; PMEM_BYTES];
    pmem[..64].fill(b'a');
    pmem[150..154].fill(b'a');
    let mut ops = vec![PigOp::Kick {
        addr: 0,
        len: 200,
        ports: 0,
        slot: 9,
    }];
    ops.extend([PigOp::Tick, PigOp::Skip { seed: 0 }].repeat(4));
    for _ in 0..250 {
        ops.extend([PigOp::Release, PigOp::Skip { seed: 1 }, PigOp::Tick]);
    }
    ops.extend([PigOp::Kick {
        addr: 8,
        len: 40,
        ports: 0,
        slot: 2,
    }]);
    ops.extend([PigOp::Tick, PigOp::Skip { seed: 2 }, PigOp::Release].repeat(80));
    let rules = vec![Rule::new(1, b"a"), Rule::new(2, b"aaaa")];
    let mut m = PigasusMatcher::new(RuleSet::compile(rules.clone()), 16);
    pig_apply(&mut m, ops[0], &pmem);
    for _ in 0..4 {
        m.tick(&pmem);
    }
    assert!(
        m.is_busy() && m.horizon() == 0,
        "stalled behind a full FIFO"
    );
    let released = (0..64)
        .take_while(|_| {
            let visible = m.read_reg(PIG_MATCH_REG).value != 0;
            m.write_reg(PIG_CTRL_REG, 2);
            visible
        })
        .count();
    assert_eq!(released, 32, "the FIFO holds 32 results");
    let (skips, covered) = pig_twins(rules, 16, &pmem, &ops).unwrap();
    assert!(
        skips > 0 && covered > 0,
        "{skips} skips over {covered} cycles"
    );
}
