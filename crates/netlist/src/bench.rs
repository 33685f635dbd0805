//! ISCAS89 `.bench` format parser and writer.
//!
//! The format of the sequential benchmark circuits evaluated in the paper:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G14 = NOT(G0)
//! G9 = NAND(G16, G15)
//! ```
//!
//! Supported gate types: `AND, OR, NAND, NOR, NOT, BUF/BUFF, XOR, XNOR,`
//! `CONST0/GND, CONST1/VDD` and `DFF` (state element, reset to 0 per the
//! ISCAS89 convention; our dialect also accepts `DFF1` for a
//! reset-to-1 flop so the generators can express arbitrary reset states).

use std::fmt::Write as _;

use crate::model::{GateKind, Netlist, NetlistBuilder, NetlistError, SignalId};
use crate::Result;

/// Parses `.bench` text into a netlist.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed lines and the builder's
/// structural errors (undriven signals, cycles, …) at the end.
pub fn parse(text: &str) -> Result<Netlist> {
    parse_named(text, "bench")
}

/// Parses `.bench` text, giving the netlist an explicit name.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_named(text: &str, name: &str) -> Result<Netlist> {
    let mut b = NetlistBuilder::new(name);
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| NetlistError::Parse {
            line: lineno + 1,
            message,
        };
        if let Some(rest) = strip_call(line, "INPUT") {
            b.input(rest).map_err(|e| err(e.to_string()))?;
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            b.output(rest);
        } else if let Some((lhs, rhs)) = line.split_once('=') {
            let lhs = lhs.trim();
            let rhs = rhs.trim();
            let (func, args) = rhs.split_once('(').ok_or_else(|| {
                err(format!(
                    "expected FUNC(args) on right-hand side, got `{rhs}`"
                ))
            })?;
            let args = args
                .strip_suffix(')')
                .ok_or_else(|| err("missing closing parenthesis".to_string()))?;
            let ins: Vec<&str> = args
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            let func = func.trim().to_ascii_uppercase();
            match func.as_str() {
                "DFF" | "DFF0" => {
                    let [d] = ins[..] else {
                        return Err(err(format!("DFF takes one input, got {}", ins.len())));
                    };
                    b.latch(lhs, d, false).map_err(|e| err(e.to_string()))?;
                }
                "DFF1" => {
                    let [d] = ins[..] else {
                        return Err(err(format!("DFF1 takes one input, got {}", ins.len())));
                    };
                    b.latch(lhs, d, true).map_err(|e| err(e.to_string()))?;
                }
                _ => {
                    let kind = match func.as_str() {
                        "AND" => GateKind::And,
                        "OR" => GateKind::Or,
                        "NAND" => GateKind::Nand,
                        "NOR" => GateKind::Nor,
                        "NOT" | "INV" => GateKind::Not,
                        "BUF" | "BUFF" => GateKind::Buf,
                        "XOR" => GateKind::Xor,
                        "XNOR" => GateKind::Xnor,
                        "CONST0" | "GND" => GateKind::Const0,
                        "CONST1" | "VDD" => GateKind::Const1,
                        other => return Err(err(format!("unknown gate type `{other}`"))),
                    };
                    b.gate(lhs, kind, &ins).map_err(|e| err(e.to_string()))?;
                }
            }
        } else {
            return Err(err(format!("unrecognized line `{line}`")));
        }
    }
    b.finish()
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim_start();
    rest.strip_prefix('(')?
        .trim()
        .strip_suffix(')')
        .map(str::trim)
}

/// Serializes a netlist to `.bench` text.
///
/// [`GateKind::Cover`] gates (from BLIF `.names`) have no direct `.bench`
/// equivalent; they are decomposed into `NOT`/`AND`/`OR` gates with
/// `$`-prefixed auxiliary signals, so any parseable BLIF converts.
///
/// # Errors
///
/// Returns [`NetlistError::Unwritable`] for a signal name [`parse`] would
/// not read back as one name: empty, padded with whitespace, or holding
/// a line break or one of `,()=#` (a BLIF name may hold any of `,()=`).
pub fn write(net: &Netlist) -> Result<String> {
    let unwritable =
        |n: &str| n.is_empty() || n.trim() != n || n.contains([',', '(', ')', '=', '#', '\n']);
    if let Some(name) = (0..net.num_signals())
        .map(|i| net.signal_name(SignalId::from_index(i)))
        .find(|n| unwritable(n))
    {
        return Err(NetlistError::Unwritable {
            name: name.to_string(),
        });
    }
    let mut out = String::new();
    let _ = writeln!(out, "# {} : {}", net.name(), net.stats());
    for &i in net.inputs() {
        let _ = writeln!(out, "INPUT({})", net.signal_name(i));
    }
    for &o in net.outputs() {
        let _ = writeln!(out, "OUTPUT({})", net.signal_name(o));
    }
    for l in net.latches() {
        let func = if l.init { "DFF1" } else { "DFF" };
        let _ = writeln!(
            out,
            "{} = {}({})",
            net.signal_name(l.output),
            func,
            net.signal_name(l.input)
        );
    }
    for g in net.gates() {
        let ins: Vec<&str> = g.inputs.iter().map(|&i| net.signal_name(i)).collect();
        let func = match &g.kind {
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Cover(rows) => {
                write_cover(&mut out, net.signal_name(g.output), &ins, rows);
                continue;
            }
        };
        let _ = writeln!(
            out,
            "{} = {}({})",
            net.signal_name(g.output),
            func,
            ins.join(", ")
        );
    }
    Ok(out)
}

/// Decomposes a sum-of-products cover into NOT/AND/OR `.bench` gates.
fn write_cover(out: &mut String, name: &str, ins: &[&str], rows: &[Vec<Option<bool>>]) {
    if rows.is_empty() {
        let _ = writeln!(out, "{name} = CONST0()");
        return;
    }
    let mut row_sigs: Vec<String> = Vec::with_capacity(rows.len());
    let mut inverted: Vec<Option<String>> = vec![None; ins.len()];
    let mut aux = String::new();
    for (ri, row) in rows.iter().enumerate() {
        let mut lits: Vec<String> = Vec::new();
        for (k, lit) in row.iter().enumerate() {
            match lit {
                Some(true) => lits.push(ins[k].to_string()),
                Some(false) => {
                    let inv = inverted[k].get_or_insert_with(|| {
                        let nm = format!("{name}$n{k}");
                        let _ = writeln!(aux, "{nm} = NOT({})", ins[k]);
                        nm
                    });
                    lits.push(inv.clone());
                }
                None => {}
            }
        }
        match lits.len() {
            0 => {
                // Tautological row: the whole cover is constant 1.
                let _ = writeln!(out, "{name} = CONST1()");
                return;
            }
            1 if rows.len() == 1 => {
                out.push_str(&aux);
                let _ = writeln!(out, "{name} = BUF({})", lits[0]);
                return;
            }
            1 => row_sigs.push(lits.remove(0)),
            _ => {
                let rs = format!("{name}$r{ri}");
                let _ = writeln!(aux, "{rs} = AND({})", lits.join(", "));
                row_sigs.push(rs);
            }
        }
    }
    out.push_str(&aux);
    if row_sigs.len() == 1 {
        let only = row_sigs.remove(0);
        let _ = writeln!(out, "{name} = BUF({only})");
    } else {
        let _ = writeln!(out, "{name} = OR({})", row_sigs.join(", "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = "\
# a toy circuit
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(d)
r = DFF1(q)
x = AND(a, q)
y = OR(x, b)   # trailing comment
d = XOR(y, r)
";

    #[test]
    fn parse_toy() {
        let net = parse(TOY).unwrap();
        assert_eq!(net.stats().inputs, 2);
        assert_eq!(net.stats().latches, 2);
        assert_eq!(net.stats().gates, 3);
        assert_eq!(net.initial_state(), vec![false, true]);
        assert_eq!(net.signal_name(net.outputs()[0]), "y");
    }

    #[test]
    fn roundtrip() {
        let net = parse(TOY).unwrap();
        let text = write(&net).unwrap();
        let again = parse_named(&text, net.name()).unwrap();
        assert_eq!(net, again);
    }

    #[test]
    fn spacing_variants() {
        let net = parse("INPUT ( a )\nOUTPUT(y)\ny = NOT ( a )\n").unwrap();
        assert_eq!(net.stats().gates, 1);
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let err = parse("INPUT(a)\nx = FROB(a)\n").unwrap_err();
        assert_eq!(
            err,
            NetlistError::Parse {
                line: 2,
                message: "unknown gate type `FROB`".into()
            }
        );
        let err = parse("what is this").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 1, .. }));
        let err = parse("x = AND(a\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 1, .. }));
    }

    #[test]
    fn dff_arity_checked() {
        let err = parse("q = DFF(a, b)\nINPUT(a)\nINPUT(b)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 1, .. }));
    }

    #[test]
    fn structural_errors_surface() {
        let err = parse("OUTPUT(y)\ny = AND(a, b)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Undriven { .. }));
    }

    #[test]
    fn malformed_inputs_return_structured_errors() {
        // Truncated line: assignment with an empty right-hand side.
        assert!(matches!(
            parse("INPUT(a)\nx = \n"),
            Err(NetlistError::Parse { line: 2, .. })
        ));
        // Truncated INPUT (missing closing parenthesis) is not a valid
        // directive or assignment.
        assert!(matches!(
            parse("INPUT(a\n"),
            Err(NetlistError::Parse { line: 1, .. })
        ));
        // Duplicate latch definition: q driven twice.
        assert!(matches!(
            parse("INPUT(a)\nq = DFF(a)\nq = DFF(a)\n"),
            Err(NetlistError::Parse { line: 3, .. })
        ));
        // Undeclared signal feeding a gate surfaces as a structural error.
        assert!(matches!(
            parse("OUTPUT(y)\ny = NOT(ghost)\n"),
            Err(NetlistError::Undriven { .. })
        ));
        // Zero-input DFF.
        assert!(matches!(
            parse("q = DFF()\n"),
            Err(NetlistError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn constants_parse() {
        let net = parse("OUTPUT(y)\nz = VDD()\ny = BUF(z)\n").unwrap();
        assert_eq!(net.gates().len(), 2);
    }
}

#[cfg(test)]
mod cover_tests {
    use super::*;
    use crate::model::GateKind;

    #[test]
    fn covers_decompose_into_primitive_gates() {
        let blif = "\
.model c
.inputs a b c
.outputs y z w v
.names a b y
11 1
00 1
.names a z
0 1
.names a b c w
1-- 1
.names v
1
.end
";
        let net = crate::blif::parse(blif).unwrap();
        let text = write(&net).unwrap();
        let again = parse(&text).unwrap();
        // Behavioural equivalence over all inputs: lane k applies the
        // bits of k, most significant first.
        let ins = [0xF0, 0xCC, 0xAA];
        let eval = |n: &crate::model::Netlist| n.step_words(&[], &ins).unwrap().1;
        let lanes = |outs: Vec<u64>| -> Vec<u64> { outs.iter().map(|w| w & 0xFF).collect() };
        assert_eq!(lanes(eval(&net)), lanes(eval(&again)));
        // No cover gates survive in the round-tripped netlist.
        assert!(again
            .gates()
            .iter()
            .all(|g| !matches!(g.kind, GateKind::Cover(_))));
    }

    #[test]
    fn empty_cover_is_const0() {
        let blif = ".model c\n.outputs y\n.names y\n.end\n";
        let net = crate::blif::parse(blif).unwrap();
        let text = write(&net).unwrap();
        assert!(text.contains("CONST0"));
        assert!(parse(&text).is_ok());
    }
}
