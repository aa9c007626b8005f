//! Lockstep twins for the accelerator horizon: a `FirewallMatcher` that
//! [`Accelerator::skip`]s `k` cycles inside its horizon must be
//! indistinguishable from one ticked `k` times — every later register read
//! (value and wait-states), `is_busy` and the horizon itself — whatever
//! register traffic brought it there and whatever traffic follows.

use proptest::prelude::*;
use rosebud_accel::{Accelerator, FirewallMatcher, RegRead, FW_MATCH_REG, FW_SRC_IP_REG};

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
