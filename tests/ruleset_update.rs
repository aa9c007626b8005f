//! The paper's headline operational win (§7.1.2): "Rosebud also enabled
//! overcoming a key limitation of the original Pigasus design: there is no
//! way to reconfigure the pattern matcher's ruleset during runtime. The only
//! method to update the ruleset is to reload a new FPGA image."
//!
//! Here the host performs a *rolling* ruleset update: each RPU in turn is
//! drained, partially reconfigured with an accelerator compiled from the new
//! rules, and re-enabled — while traffic keeps flowing through the others
//! and zero packets are lost.

use rosebud::accel::{FirewallMatcher, PigasusMatcher, RuleSet};
use rosebud::apps::firewall::{build_firewall_system, synthetic_blacklist};
use rosebud::apps::pigasus::{build_pigasus_system_with, PigasusFirmware, ReorderMode};
use rosebud::apps::rules::synthetic_rules;
use rosebud::core::{Harness, HostOp, MemRegion, RpuProgram};
use rosebud::net::{AttackMixGen, FixedSizeGen, FlowTrafficGen};

#[test]
fn rolling_ids_ruleset_update_under_traffic() {
    let old_rules = synthetic_rules(32, 100);
    let new_rules = synthetic_rules(32, 200); // disjoint patterns
    let rpus = 4;
    let sys =
        build_pigasus_system_with(ReorderMode::Hardware, old_rules.clone(), rpus, 16).unwrap();

    // Background: clean traffic mixed with NEW-rule attacks, which the old
    // ruleset cannot see.
    let payloads: Vec<Vec<u8>> = new_rules.iter().map(|r| r.pattern.clone()).collect();
    let base = FlowTrafficGen::new(256, 512, 0.0, 7);
    let gen = AttackMixGen::new(base, 0.05, payloads, 11);
    let mut h = Harness::new(sys, Box::new(gen), 20.0);
    h.run(60_000);
    let flagged_before = h.host_received();
    assert_eq!(
        flagged_before, 0,
        "old ruleset must not match the new-rule attacks"
    );
    let drops_before = h.sys.drop_count();

    // Rolling update: one RPU at a time, like the A.8 procedure.
    for r in 0..rpus {
        let compiled = RuleSet::compile(new_rules.clone());
        let slots = h.sys.config().slots_per_rpu;
        h.sys.reconfigure_rpu(
            r,
            Some(RpuProgram::Native(Box::new(PigasusFirmware::new(
                ReorderMode::Hardware,
                slots,
            )))),
            Some(Box::new(PigasusMatcher::new(compiled, 16))),
        );
        let mut waited = 0;
        while h.sys.reconfigure_pending(r) {
            h.tick();
            waited += 1;
            assert!(waited < 400_000, "PR of RPU {r} never completed");
        }
    }
    assert_eq!(
        h.sys.drop_count(),
        drops_before,
        "rolling update lost packets"
    );

    // The new ruleset is live: new-rule attacks now reach the host.
    h.run(80_000);
    assert!(
        h.host_received() > flagged_before + 10,
        "updated ruleset flagged only {} packets",
        h.host_received()
    );
}

#[test]
fn firewall_blacklist_update_switches_verdicts() {
    let list_a = synthetic_blacklist(64, 1);
    let list_b = synthetic_blacklist(64, 2);
    let sys = build_firewall_system(4, &list_a).unwrap();
    // Attack traffic drawn from list B only: invisible to list A.
    let gen = AttackMixGen::new(FixedSizeGen::new(256, 2), 0.10, Vec::new(), 3)
        .with_attack_ips(list_b.clone());
    let mut h = Harness::new(sys, Box::new(gen), 10.0);
    h.run(40_000);
    let drops_with_a = h.sys.drop_count();
    assert_eq!(drops_with_a, 0, "list A must not drop list-B sources");

    // Swap every RPU's generated matcher for list B (the §7.2 accelerator
    // is LUT logic, so a blacklist change is a PR, not a table write).
    for r in 0..4 {
        h.sys.reconfigure_rpu(
            r,
            None, // keep the same assembled firmware (factory reload)
            Some(Box::new(FirewallMatcher::from_prefixes(&list_b))),
        );
        while h.sys.reconfigure_pending(r) {
            h.tick();
        }
    }
    h.run(60_000);
    assert!(
        h.sys.drop_count() > drops_with_a + 20,
        "updated blacklist dropped only {} packets",
        h.sys.drop_count()
    );
}

#[test]
fn pigasus_tables_can_be_poked_through_host_memory_access() {
    // §7.1.2's other half: the framework can reach accelerator-local tables
    // at runtime through the host paths: a write into accelerator memory
    // reaches the table-load port (the URAM write-port hook).
    let rules = synthetic_rules(8, 5);
    let mut sys = build_pigasus_system_with(ReorderMode::Hardware, rules, 4, 16).unwrap();
    sys.apply(HostOp::WriteMem {
        rpu: 0,
        region: MemRegion::AccelMem,
        offset: 0,
        bytes: vec![0; 64],
    })
    .unwrap();
    let accel = sys.rpus()[0].accelerator().expect("accelerator installed");
    assert_eq!(accel.name(), "pigasus-mpse");
}
