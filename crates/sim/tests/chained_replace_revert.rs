use netlist::{GateKind, Netlist};
use sim::incr::{Delta, IncrementalSim};
use sim::stimulus::{PackedPatterns, Stimulus};

#[test]
fn chained_replace_uses_revert_restores_outputs() {
    // x = AND(a,b); y = OR(a,b); z = XOR(a,b); output -> x
    let mut nl = Netlist::new("t");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let x = nl.add_gate(GateKind::And, &[a, b]);
    let y = nl.add_gate(GateKind::Or, &[a, b]);
    let z = nl.add_gate(GateKind::Xor, &[a, b]);
    nl.mark_output(x, "o");
    let _ = (y, z);

    let patterns = Stimulus::uniform(2).patterns(64, 1);
    let packed = PackedPatterns::pack(&patterns);
    let mut engine = IncrementalSim::from_full_eval(&nl, &packed);

    // One delta with a chained replace: x -> y, then y -> z.
    let mut delta = Delta::for_netlist(&nl);
    delta.replace_uses(x, y);
    delta.replace_uses(y, z);
    let mark = engine.checkpoint();
    engine.apply_delta(&delta);
    assert_eq!(engine.netlist().outputs()[0].0, z);

    assert!(engine.rollback_to(mark));
    assert_eq!(
        engine.netlist().outputs()[0].0,
        x,
        "rollback must restore the original output net"
    );
}
