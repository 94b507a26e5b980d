//! A BLIF-inspired text format for netlists.
//!
//! The format is line-oriented:
//!
//! ```text
//! .model adder
//! .inputs a b cin
//! .outputs s cout
//! .gate xor  t1 a b
//! .gate xor  s t1 cin
//! .gate and  t2 a b
//! .gate and  t3 t1 cin
//! .gate or   cout t2 t3
//! .end
//! ```
//!
//! Flip-flops use `.latch q d [en] 0|1` (output, data, optional enable,
//! initial value). Comments start with `#`.

use std::collections::{HashMap, HashSet};

use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::graph::{NetId, Netlist};

/// Serialize a netlist to the text format.
///
/// Nets are named by their debug name when present, otherwise `n<i>`,
/// or `n<i>_<k>` with the smallest `k` that avoids every debug name and
/// output name (a parsed netlist may already hold `n<i>` for another net).
pub fn write_text(nl: &Netlist) -> String {
    let mut out = String::new();
    let taken: HashSet<&str> = nl
        .iter_nets()
        .filter_map(|net| nl.net_name(net))
        .chain(nl.outputs().iter().map(|(_, name)| name.as_str()))
        .collect();
    let names: Vec<String> = nl
        .iter_nets()
        .map(|net| match nl.net_name(net) {
            Some(name) => name.to_owned(),
            None => {
                let mut name = format!("n{}", net.index());
                let mut k = 0;
                while taken.contains(name.as_str()) {
                    k += 1;
                    name = format!("n{}_{k}", net.index());
                }
                name
            }
        })
        .collect();
    let name_of = |net: NetId| -> String { names[net.index()].clone() };
    out.push_str(&format!(".model {}\n", nl.name()));
    out.push_str(".inputs");
    for &pi in nl.inputs() {
        out.push(' ');
        out.push_str(&name_of(pi));
    }
    out.push('\n');
    out.push_str(".outputs");
    for (_, name) in nl.outputs() {
        out.push(' ');
        out.push_str(name);
    }
    out.push('\n');
    for net in nl.iter_nets() {
        let kind = nl.kind(net);
        match kind {
            GateKind::Input => {}
            GateKind::Dff => {
                let fanins = nl.fanins(net);
                out.push_str(&format!(".latch {} {}", name_of(net), name_of(fanins[0])));
                if fanins.len() == 2 {
                    out.push_str(&format!(" {}", name_of(fanins[1])));
                }
                out.push_str(&format!(" {}\n", nl.dff_init(net) as u8));
            }
            _ => {
                out.push_str(&format!(".gate {} {}", kind.mnemonic(), name_of(net)));
                for &fi in nl.fanins(net) {
                    out.push(' ');
                    out.push_str(&name_of(fi));
                }
                out.push('\n');
            }
        }
    }
    // Emit output aliases when an output name differs from its net's name.
    for (net, name) in nl.outputs() {
        if name_of(*net) != *name {
            out.push_str(&format!(".gate buf {} {}\n", name, name_of(*net)));
        }
    }
    out.push_str(".end\n");
    out
}

/// Parse the text format back into a netlist.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with a line number on malformed input,
/// and structural errors if the described netlist is invalid.
pub fn parse_text(text: &str) -> Result<Netlist, NetlistError> {
    #[derive(Debug)]
    enum Pending {
        Gate {
            kind: GateKind,
            output: String,
            inputs: Vec<String>,
            line: usize,
        },
        Latch {
            output: String,
            data: String,
            enable: Option<String>,
            init: bool,
        },
    }

    let mut model = String::from("model");
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut tokens = content.split_whitespace();
        // `content` is non-empty after trimming, but never trust that
        // invariant with a panic in a parser fed by user files.
        let Some(head) = tokens.next() else {
            return Err(NetlistError::Parse {
                line,
                message: "empty directive".into(),
            });
        };
        let rest: Vec<&str> = tokens.collect();
        match head {
            ".model" => {
                model = rest.first().map(|s| s.to_string()).ok_or(NetlistError::Parse {
                    line,
                    message: "missing model name".into(),
                })?;
            }
            ".inputs" => input_names.extend(rest.iter().map(|s| s.to_string())),
            ".outputs" => output_names.extend(rest.iter().map(|s| s.to_string())),
            ".gate" => {
                if rest.len() < 2 {
                    return Err(NetlistError::Parse {
                        line,
                        message: "gate needs a kind and an output".into(),
                    });
                }
                let kind = GateKind::from_mnemonic(rest[0]).ok_or_else(|| NetlistError::Parse {
                    line,
                    message: format!("unknown gate kind {:?}", rest[0]),
                })?;
                pending.push(Pending::Gate {
                    kind,
                    output: rest[1].to_string(),
                    inputs: rest[2..].iter().map(|s| s.to_string()).collect(),
                    line,
                });
            }
            ".latch" => {
                if rest.len() < 3 || rest.len() > 4 {
                    return Err(NetlistError::Parse {
                        line,
                        message: "latch needs: output data [enable] init".into(),
                    });
                }
                let init = match rest.last().copied().ok_or(NetlistError::Parse {
                    line,
                    message: "latch needs: output data [enable] init".into(),
                })? {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(NetlistError::Parse {
                            line,
                            message: format!("latch init must be 0 or 1, got {other:?}"),
                        })
                    }
                };
                pending.push(Pending::Latch {
                    output: rest[0].to_string(),
                    data: rest[1].to_string(),
                    enable: if rest.len() == 4 {
                        Some(rest[2].to_string())
                    } else {
                        None
                    },
                    init,
                });
            }
            ".end" => break,
            other => {
                return Err(NetlistError::Parse {
                    line,
                    message: format!("unknown directive {other:?}"),
                })
            }
        }
    }

    let mut nl = Netlist::new(model);
    let mut names: HashMap<String, NetId> = HashMap::new();
    for name in &input_names {
        if names.contains_key(name) {
            return Err(NetlistError::DuplicateName { name: name.clone() });
        }
        let id = nl.add_input(name.clone());
        names.insert(name.clone(), id);
    }
    // Create latches first (their outputs may be used before definition).
    for p in &pending {
        if let Pending::Latch { output, init, .. } = p {
            if names.contains_key(output) {
                return Err(NetlistError::DuplicateName {
                    name: output.clone(),
                });
            }
            let id = nl.add_dff_placeholder(*init);
            names.insert(output.clone(), id);
        }
    }
    // A gate may not redefine an input, a latch or another gate's output.
    let mut defined: HashSet<&str> = names.keys().map(String::as_str).collect();
    for p in &pending {
        if let Pending::Gate { output, .. } = p {
            if !defined.insert(output) {
                return Err(NetlistError::DuplicateName {
                    name: output.clone(),
                });
            }
        }
    }
    // Create combinational gates in multiple passes (inputs may be defined
    // in any order in the file).
    let mut remaining: Vec<&Pending> = pending
        .iter()
        .filter(|p| matches!(p, Pending::Gate { .. }))
        .collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|p| {
            let Pending::Gate {
                kind,
                output,
                inputs,
                ..
            } = p
            else {
                return false;
            };
            let resolved: Option<Vec<NetId>> =
                inputs.iter().map(|n| names.get(n).copied()).collect();
            match resolved {
                Some(ins) if kind.arity_ok(ins.len()) => {
                    let id = if let GateKind::Const(v) = kind {
                        nl.add_const(*v)
                    } else {
                        nl.add_gate_named(*kind, &ins, output.clone())
                    };
                    names.insert(output.clone(), id);
                    false
                }
                Some(ins) => {
                    // Arity error: surface immediately via a marker.
                    let _ = ins;
                    true
                }
                None => true,
            }
        });
        if remaining.len() == before {
            let p = remaining[0];
            let (line, message) = match p {
                Pending::Gate {
                    kind,
                    inputs,
                    line,
                    output,
                } => {
                    if !kind.arity_ok(inputs.len()) {
                        (
                            *line,
                            format!(
                                "gate {output:?}: kind {kind} requires {} inputs, got {}",
                                kind.arity_spec(),
                                inputs.len()
                            ),
                        )
                    } else {
                        let missing: Vec<&String> =
                            inputs.iter().filter(|n| !names.contains_key(*n)).collect();
                        (*line, format!("gate {output:?}: undefined nets {missing:?}"))
                    }
                }
                Pending::Latch { .. } => unreachable!("latches filtered"),
            };
            return Err(NetlistError::Parse { line, message });
        }
    }
    // Wire latch data/enable.
    for p in &pending {
        if let Pending::Latch {
            output,
            data,
            enable,
            ..
        } = p
        {
            let q = names[output.as_str()];
            let d = *names.get(data).ok_or_else(|| NetlistError::Parse {
                line: 0,
                message: format!("latch {output:?}: undefined data net {data:?}"),
            })?;
            nl.set_dff_data(q, d);
            if let Some(en) = enable {
                let e = *names.get(en).ok_or_else(|| NetlistError::Parse {
                    line: 0,
                    message: format!("latch {output:?}: undefined enable net {en:?}"),
                })?;
                nl.set_dff_enable(q, e);
            }
        }
    }
    for name in &output_names {
        let net = *names.get(name).ok_or_else(|| NetlistError::Parse {
            line: 0,
            message: format!("undefined output net {name:?}"),
        })?;
        nl.mark_output(net, name.clone());
    }
    nl.validate()?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{comparator_gt, counter, ripple_adder};

    #[test]
    fn round_trip_combinational() {
        let (nl, _) = ripple_adder(4);
        let text = write_text(&nl);
        let back = parse_text(&text).unwrap();
        assert_eq!(back.num_inputs(), nl.num_inputs());
        assert_eq!(back.num_outputs(), nl.num_outputs());
        for pattern_bits in 0u32..256 {
            let bits: Vec<bool> = (0..8).map(|i| pattern_bits >> i & 1 == 1).collect();
            assert_eq!(back.eval_comb(&bits), nl.eval_comb(&bits));
        }
    }

    #[test]
    fn round_trip_sequential() {
        let nl = counter(4);
        let text = write_text(&nl);
        let back = parse_text(&text).unwrap();
        assert_eq!(back.num_dffs(), 4);
        assert_eq!(back.num_inputs(), 1);
        back.validate().unwrap();
    }

    #[test]
    fn parse_hand_written() {
        let text = "
# half adder
.model ha
.inputs a b
.outputs s c
.gate xor s a b
.gate and c a b
.end
";
        let nl = parse_text(text).unwrap();
        assert_eq!(nl.eval_comb(&[true, true]), vec![false, true]);
        assert_eq!(nl.eval_comb(&[true, false]), vec![true, false]);
    }

    #[test]
    fn parse_out_of_order_definitions() {
        let text = "
.model ooo
.inputs a b
.outputs y
.gate or y t1 t2
.gate and t1 a b
.gate xor t2 a b
.end
";
        let nl = parse_text(text).unwrap();
        assert_eq!(nl.eval_comb(&[true, false]), vec![true]);
        assert_eq!(nl.eval_comb(&[false, false]), vec![false]);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(matches!(
            parse_text(".model m\n.gate frob y a\n.end"),
            Err(NetlistError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_text(".model m\n.inputs a\n.outputs y\n.gate and y a ghost\n.end"),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            parse_text(".model m\n.bogus x\n.end"),
            Err(NetlistError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_text(".model m\n.inputs d\n.outputs q\n.latch q d 2\n.end"),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn latch_with_enable_round_trips() {
        let text = "
.model gated
.inputs d en
.outputs q
.latch q d en 0
.end
";
        let nl = parse_text(text).unwrap();
        assert_eq!(nl.num_dffs(), 1);
        let dff = nl.dffs()[0];
        assert_eq!(nl.fanins(dff).len(), 2);
        let again = parse_text(&write_text(&nl)).unwrap();
        assert_eq!(again.fanins(again.dffs()[0]).len(), 2);
    }

    #[test]
    fn generated_names_skip_names_already_taken() {
        // A parsed netlist can name a net `n2` while net 2 itself is
        // unnamed; the writer must not define `n2` twice.
        let mut nl = Netlist::new("clash");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Not, &[a]);
        assert_eq!(g.index(), 2);
        let h = nl.add_gate_named(GateKind::And, &[g, b], "n2");
        nl.mark_output(h, "y");
        let text = write_text(&nl);
        assert_eq!(text.matches(".gate not n2_1 a").count(), 1, "{text}");
        let back = parse_text(&text).unwrap();
        for bits in [[false, false], [false, true], [true, false], [true, true]] {
            assert_eq!(back.eval_comb(&bits), nl.eval_comb(&bits));
        }
    }

    #[test]
    fn redefined_gate_name_is_rejected() {
        for text in [
            ".model m\n.inputs a\n.outputs y\n.gate not y a\n.gate buf y a\n.end",
            ".model m\n.inputs a\n.outputs a\n.gate not a a\n.end",
            ".model m\n.inputs d\n.outputs q\n.latch q d 0\n.gate buf q d\n.end",
        ] {
            assert!(
                matches!(parse_text(text), Err(NetlistError::DuplicateName { .. })),
                "{text}"
            );
        }
    }

    #[test]
    fn comparator_round_trip_function() {
        let (nl, _) = comparator_gt(3);
        let back = parse_text(&write_text(&nl)).unwrap();
        for c in 0u64..8 {
            for d in 0u64..8 {
                let bits: Vec<bool> = (0..3)
                    .map(|i| c >> i & 1 == 1)
                    .chain((0..3).map(|i| d >> i & 1 == 1))
                    .collect();
                assert_eq!(back.eval_comb(&bits), nl.eval_comb(&bits));
            }
        }
    }
}
