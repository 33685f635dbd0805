//! BLIF (Berkeley Logic Interchange Format) subset parser and writer.
//!
//! Supported constructs: `.model`, `.inputs`, `.outputs`, `.latch`
//! (with optional reset value), `.names` (single-output sum-of-products
//! covers, positive or negative phase), line continuation with `\`, and
//! `.end`. This covers the combinational/sequential core used by logic
//! synthesis flows (and by VIS for the ISCAS89 circuits).

use std::fmt::Write as _;

use crate::model::{GateKind, Netlist, NetlistBuilder, NetlistError};
use crate::Result;

/// Parses a BLIF description into a netlist.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input and structural
/// errors from validation.
pub fn parse(text: &str) -> Result<Netlist> {
    // Join continuation lines first, tracking original line numbers.
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in text.lines().enumerate() {
        let no_comment = raw.split('#').next().unwrap_or("");
        let (start, mut acc) = pending.take().unwrap_or((i, String::new()));
        if let Some(stripped) = no_comment.trim_end().strip_suffix('\\') {
            acc.push_str(stripped);
            acc.push(' ');
            pending = Some((start, acc));
            continue;
        }
        acc.push_str(no_comment);
        let trimmed = acc.trim().to_string();
        if !trimmed.is_empty() {
            lines.push((start + 1, trimmed));
        }
    }
    // A `\` on the final line leaves its continuation pending: flush it
    // rather than silently dropping the accumulated text.
    if let Some((start, acc)) = pending {
        let trimmed = acc.trim().to_string();
        if !trimmed.is_empty() {
            lines.push((start + 1, trimmed));
        }
    }

    let mut b: Option<NetlistBuilder> = None;
    let mut idx = 0;
    while idx < lines.len() {
        let (lineno, line) = &lines[idx];
        let lineno = *lineno;
        let err = |message: String| NetlistError::Parse {
            line: lineno,
            message,
        };
        let mut tokens = line.split_whitespace();
        // Blank lines were filtered above; skip defensively regardless.
        let Some(head) = tokens.next() else {
            idx += 1;
            continue;
        };
        match head {
            ".model" => {
                let name = tokens.next().unwrap_or("blif");
                if b.is_some() {
                    return Err(err("only one .model per file is supported".into()));
                }
                b = Some(NetlistBuilder::new(name));
                idx += 1;
            }
            ".inputs" => {
                let b = b
                    .as_mut()
                    .ok_or_else(|| err(".inputs before .model".into()))?;
                for t in tokens {
                    b.input(t).map_err(|e| err(e.to_string()))?;
                }
                idx += 1;
            }
            ".outputs" => {
                let b = b
                    .as_mut()
                    .ok_or_else(|| err(".outputs before .model".into()))?;
                for t in tokens {
                    b.output(t);
                }
                idx += 1;
            }
            ".latch" => {
                let b = b
                    .as_mut()
                    .ok_or_else(|| err(".latch before .model".into()))?;
                let args: Vec<&str> = tokens.collect();
                // .latch <input> <output> [<type> <control>] [<init>]
                if args.len() < 2 {
                    return Err(err(".latch needs input and output".into()));
                }
                let init = match args.last() {
                    Some(&"1") => true,
                    Some(&"0") | Some(&"2") | Some(&"3") => false,
                    _ if args.len() == 2 => false,
                    Some(other) if args.len() > 2 => {
                        // Could be a control clock; treat missing init as 0.
                        let _ = other;
                        false
                    }
                    _ => false,
                };
                b.latch(args[1], args[0], init)
                    .map_err(|e| err(e.to_string()))?;
                idx += 1;
            }
            ".names" => {
                let b = b
                    .as_mut()
                    .ok_or_else(|| err(".names before .model".into()))?;
                let sigs: Vec<&str> = tokens.collect();
                if sigs.is_empty() {
                    return Err(err(".names needs at least an output".into()));
                }
                let (ins, out) = sigs.split_at(sigs.len() - 1);
                // Gather cover rows until the next dot-command.
                let mut on_rows: Vec<Vec<Option<bool>>> = Vec::new();
                let mut off_rows: Vec<Vec<Option<bool>>> = Vec::new();
                idx += 1;
                while idx < lines.len() && !lines[idx].1.starts_with('.') {
                    let (rl, row) = &lines[idx];
                    let rerr = |message: String| NetlistError::Parse { line: *rl, message };
                    let parts: Vec<&str> = row.split_whitespace().collect();
                    let (cube_str, val) = match parts.len() {
                        1 if ins.is_empty() => ("", parts[0]),
                        2 => (parts[0], parts[1]),
                        _ => return Err(rerr(format!("bad cover row `{row}`"))),
                    };
                    if cube_str.len() != ins.len() {
                        return Err(rerr(format!(
                            "cube width {} does not match {} inputs",
                            cube_str.len(),
                            ins.len()
                        )));
                    }
                    let cube: Vec<Option<bool>> = cube_str
                        .chars()
                        .map(|c| match c {
                            '0' => Ok(Some(false)),
                            '1' => Ok(Some(true)),
                            '-' => Ok(None),
                            other => Err(rerr(format!("bad cube character `{other}`"))),
                        })
                        .collect::<Result<_, _>>()?;
                    match val {
                        "1" => on_rows.push(cube),
                        "0" => off_rows.push(cube),
                        other => return Err(rerr(format!("bad output value `{other}`"))),
                    }
                    idx += 1;
                }
                if !on_rows.is_empty() && !off_rows.is_empty() {
                    return Err(err("mixed-phase covers are not supported".into()));
                }
                let kind = if on_rows.is_empty() && off_rows.is_empty() {
                    GateKind::Const0
                } else if off_rows.is_empty() {
                    GateKind::Cover(on_rows)
                } else {
                    // Negative phase: output is 0 on the cover. Represent
                    // as the complementary gate via Cover + Not through an
                    // auxiliary signal.
                    let aux = format!("{}$off", out[0]);
                    b.gate(&aux, GateKind::Cover(off_rows), ins)
                        .map_err(|e| err(e.to_string()))?;
                    b.gate(out[0], GateKind::Not, &[aux.as_str()])
                        .map_err(|e| err(e.to_string()))?;
                    continue;
                };
                b.gate(out[0], kind, ins).map_err(|e| err(e.to_string()))?;
            }
            ".end" => {
                idx += 1;
            }
            other => return Err(err(format!("unsupported construct `{other}`"))),
        }
    }
    b.ok_or_else(|| NetlistError::Parse {
        line: 1,
        message: "no .model found".into(),
    })?
    .finish()
}

/// Serializes a netlist as BLIF. Every gate kind (including
/// [`GateKind::Cover`]) is expressible.
#[must_use]
pub fn write(net: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", net.name());
    if !net.inputs().is_empty() {
        let names: Vec<&str> = net.inputs().iter().map(|&s| net.signal_name(s)).collect();
        let _ = writeln!(out, ".inputs {}", names.join(" "));
    }
    if !net.outputs().is_empty() {
        let names: Vec<&str> = net.outputs().iter().map(|&s| net.signal_name(s)).collect();
        let _ = writeln!(out, ".outputs {}", names.join(" "));
    }
    for l in net.latches() {
        let _ = writeln!(
            out,
            ".latch {} {} {}",
            net.signal_name(l.input),
            net.signal_name(l.output),
            u8::from(l.init)
        );
    }
    for g in net.gates() {
        let ins: Vec<&str> = g.inputs.iter().map(|&s| net.signal_name(s)).collect();
        let _ = writeln!(
            out,
            ".names {} {}",
            ins.join(" "),
            net.signal_name(g.output)
        );
        let n = ins.len();
        match &g.kind {
            GateKind::And => {
                let _ = writeln!(out, "{} 1", "1".repeat(n));
            }
            GateKind::Nor => {
                let _ = writeln!(out, "{} 1", "0".repeat(n));
            }
            GateKind::Or => {
                for i in 0..n {
                    let mut row: Vec<char> = vec!['-'; n];
                    row[i] = '1';
                    let _ = writeln!(out, "{} 1", row.iter().collect::<String>());
                }
            }
            GateKind::Nand => {
                for i in 0..n {
                    let mut row: Vec<char> = vec!['-'; n];
                    row[i] = '0';
                    let _ = writeln!(out, "{} 1", row.iter().collect::<String>());
                }
            }
            GateKind::Not => {
                let _ = writeln!(out, "0 1");
            }
            GateKind::Buf => {
                let _ = writeln!(out, "1 1");
            }
            GateKind::Xor | GateKind::Xnor => {
                let want_odd = matches!(g.kind, GateKind::Xor);
                for bits in 0u32..(1 << n) {
                    let ones = bits.count_ones() as usize;
                    if (ones % 2 == 1) == want_odd {
                        let row: String = (0..n)
                            .map(|i| {
                                if bits >> (n - 1 - i) & 1 == 1 {
                                    '1'
                                } else {
                                    '0'
                                }
                            })
                            .collect();
                        let _ = writeln!(out, "{row} 1");
                    }
                }
            }
            GateKind::Const0 => {}
            GateKind::Const1 => {
                let _ = writeln!(out, "1");
            }
            GateKind::Cover(rows) => {
                for row in rows {
                    let chars: String = row
                        .iter()
                        .map(|l| match l {
                            Some(true) => '1',
                            Some(false) => '0',
                            None => '-',
                        })
                        .collect();
                    let _ = writeln!(out, "{chars} 1");
                }
            }
        }
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = "\
# toy blif
.model toy
.inputs a b
.outputs y
.latch d q 0
.names a q x
11 1
.names x b \\
y
1- 1
-1 1
.names y q d
10 1
01 1
.end
";

    #[test]
    fn parse_toy() {
        let net = parse(TOY).unwrap();
        assert_eq!(net.name(), "toy");
        assert_eq!(net.stats().inputs, 2);
        assert_eq!(net.stats().latches, 1);
        assert_eq!(net.stats().gates, 3);
    }

    #[test]
    fn roundtrip_via_blif() {
        let net = parse(TOY).unwrap();
        let text = write(&net);
        let again = parse(&text).unwrap();
        // Structure may differ (covers vs named gates) but signal counts
        // and interface must match.
        assert_eq!(net.stats().inputs, again.stats().inputs);
        assert_eq!(net.stats().latches, again.stats().latches);
        assert_eq!(net.initial_state(), again.initial_state());
    }

    #[test]
    fn bench_gates_expressible_in_blif() {
        let bench = "\
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
x = XOR(a, b, c)
z = NAND(a, b)
w = XNOR(a, c)
u = NOR(b, c)
t = AND(x, z)
s = OR(w, u)
y = AND(t, s)
";
        let net = crate::bench::parse(bench).unwrap();
        let text = write(&net);
        let again = parse(&text).unwrap();
        // Exhaustive behavioural equivalence on the combinational output.
        for bits in 0u8..8 {
            let vals = [bits & 4 != 0, bits & 2 != 0, bits & 1 != 0];
            assert_eq!(
                eval_output(&net, &vals),
                eval_output(&again, &vals),
                "mismatch at {vals:?}"
            );
        }
    }

    /// The first output of a latch-free netlist, on one lane.
    fn eval_output(net: &Netlist, input_vals: &[bool]) -> bool {
        let ins: Vec<u64> = input_vals.iter().map(|&b| u64::from(b)).collect();
        net.step_words(&[], &ins).unwrap().1[0] & 1 == 1
    }

    #[test]
    fn negative_phase_cover() {
        let text = "\
.model neg
.inputs a b
.outputs y
.names a b y
11 0
.end
";
        let net = parse(text).unwrap();
        // y = ¬(a∧b): check via the interpreter.
        assert!(eval_output(&net, &[true, false]));
        assert!(!eval_output(&net, &[true, true]));
    }

    #[test]
    fn constant_names() {
        let text = ".model c\n.outputs y\n.names y\n1\n.end\n";
        let net = parse(text).unwrap();
        assert!(eval_output(&net, &[]));
        let text0 = ".model c\n.outputs y\n.names y\n.end\n";
        let net0 = parse(text0).unwrap();
        assert!(!eval_output(&net0, &[]));
    }

    #[test]
    fn errors() {
        assert!(matches!(parse("xyz"), Err(NetlistError::Parse { .. })));
        assert!(matches!(
            parse(".inputs a"),
            Err(NetlistError::Parse { line: 1, .. })
        ));
        let bad_cube = ".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n";
        assert!(matches!(
            parse(bad_cube),
            Err(NetlistError::Parse { line: 5, .. })
        ));
    }

    #[test]
    fn malformed_inputs_return_structured_errors() {
        // Truncated .latch line (missing the output signal).
        let truncated = ".model m\n.outputs q\n.latch d\n.end\n";
        assert!(matches!(
            parse(truncated),
            Err(NetlistError::Parse { line: 3, .. })
        ));
        // Duplicate latch definition: same output driven twice.
        let dup = "\
.model m
.inputs a
.outputs q
.latch a q 0
.latch a q 0
.end
";
        assert!(matches!(
            parse(dup),
            Err(NetlistError::Parse { line: 5, .. })
        ));
        // Undeclared signal: referenced in a cover but never driven.
        let undriven = ".model m\n.outputs y\n.names ghost y\n1 1\n.end\n";
        assert!(matches!(
            parse(undriven),
            Err(NetlistError::Undriven { .. })
        ));
        // Cover row wider than the input list.
        let wide = ".model m\n.inputs a\n.outputs y\n.names a y\n11 1\n.end\n";
        assert!(matches!(
            parse(wide),
            Err(NetlistError::Parse { line: 5, .. })
        ));
        // Directives before .model.
        assert!(matches!(
            parse(".inputs a\n"),
            Err(NetlistError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn trailing_continuation_at_eof_is_not_dropped() {
        // The final line ends in `\`: its content must still be parsed
        // (here, completing the .outputs list), not silently discarded.
        let text = ".model m\n.inputs a\n.names a y\n1 1\n.outputs \\\ny";
        let net = parse(text).unwrap();
        assert_eq!(net.outputs().len(), 1);
        assert_eq!(net.signal_name(net.outputs()[0]), "y");
    }

    #[test]
    fn latch_init_values() {
        let text = ".model l\n.outputs q\n.latch d q 1\n.names q d\n0 1\n.end\n";
        let net = parse(text).unwrap();
        assert_eq!(net.initial_state(), vec![true]);
    }
}
