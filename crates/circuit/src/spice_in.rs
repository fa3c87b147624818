//! SPICE netlist parser — the inverse of [`crate::spice_out`].
//!
//! Reads the deck dialect this workspace emits (R/C/L/K, V/I with
//! DC/PWL/PULSE and optional AC, and the four controlled sources E/G/F/H)
//! back into a [`Circuit`]. Together with the exporter this enables
//! roundtrip validation — any deck we write can be re-read and must
//! simulate identically — and lets externally authored decks in the same
//! dialect drive the engine.
//!
//! Values accept both scientific notation and the classic SPICE magnitude
//! suffixes (`f p n u m k meg g t`).

use crate::elements::ElementId;
use crate::error::CircuitError;
use crate::netlist::Circuit;
use crate::waveform::Waveform;
use std::collections::HashMap;

/// Parses a SPICE value with optional magnitude suffix and optional
/// trailing unit text (`1pF`, `10nH`, `5kOhm`, `10MEGohm`), all
/// case-insensitively. As in SPICE, only the first letter(s) after the
/// number carry meaning — the magnitude suffix — and any remaining
/// alphabetic unit text is ignored.
///
/// ```
/// use vpec_circuit::spice_in::parse_value;
/// assert_eq!(parse_value("1.5k").unwrap(), 1500.0);
/// assert_eq!(parse_value("10meg").unwrap(), 1.0e7);
/// assert_eq!(parse_value("2.5e-12").unwrap(), 2.5e-12);
/// assert_eq!(parse_value("1pF").unwrap(), 1.0e-12);
/// assert_eq!(parse_value("10nH").unwrap(), 1.0e-8);
/// ```
///
/// # Errors
///
/// Returns a message naming the malformed token.
pub fn parse_value(tok: &str) -> Result<f64, String> {
    let t = tok.trim().to_ascii_lowercase();
    let fail = || format!("malformed value: {tok}");
    let bytes = t.as_bytes();
    // Scan the numeric prefix by hand rather than delegating to
    // `str::parse`, so the split between magnitude and unit text is
    // unambiguous (and so "inf"/"nan" don't sneak in as valid floats).
    let mut end = 0;
    if end < bytes.len() && (bytes[end] == b'+' || bytes[end] == b'-') {
        end += 1;
    }
    let mut saw_digit = false;
    while end < bytes.len() && (bytes[end].is_ascii_digit() || bytes[end] == b'.') {
        saw_digit |= bytes[end].is_ascii_digit();
        end += 1;
    }
    if !saw_digit {
        return Err(fail());
    }
    // An exponent belongs to the number only when 'e' is followed by a
    // (signed) digit; otherwise the letter starts the unit text.
    if end < bytes.len() && bytes[end] == b'e' {
        let mut e = end + 1;
        if e < bytes.len() && (bytes[e] == b'+' || bytes[e] == b'-') {
            e += 1;
        }
        if e < bytes.len() && bytes[e].is_ascii_digit() {
            while e < bytes.len() && bytes[e].is_ascii_digit() {
                e += 1;
            }
            end = e;
        }
    }
    let mantissa: f64 = t[..end].parse().map_err(|_| fail())?;
    let rest = &t[end..];
    if rest.is_empty() {
        return Ok(mantissa);
    }
    if !rest.chars().all(|c| c.is_ascii_alphabetic()) {
        return Err(fail());
    }
    let mult = if rest.starts_with("meg") {
        1.0e6
    } else {
        match rest.as_bytes()[0] {
            b'f' => 1.0e-15,
            b'p' => 1.0e-12,
            b'n' => 1.0e-9,
            b'u' => 1.0e-6,
            b'm' => 1.0e-3,
            b'k' => 1.0e3,
            b'g' => 1.0e9,
            b't' => 1.0e12,
            // Bare unit text with no magnitude suffix ("5ohm", "2v").
            _ => 1.0,
        }
    };
    Ok(mantissa * mult)
}

/// A parse failure with its position in the deck (1-based line, and the
/// 1-based column of the offending token when it can be attributed).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number in the deck.
    pub line: usize,
    /// 1-based column of the offending token, when known.
    pub column: Option<usize>,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.column {
            Some(col) => write!(f, "line {}, col {}: {}", self.line, col, self.message),
            None => write!(f, "line {}: {}", self.line, self.message),
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        column: None,
        message: message.into(),
    }
}

fn err_at(line: usize, column: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        column: Some(column),
        message: message.into(),
    }
}

fn circuit_err(line: usize, e: CircuitError) -> ParseError {
    err(line, e.to_string())
}

/// Whitespace-separated tokens of a card with the 1-based column each one
/// starts at — the source of the column numbers in [`ParseError`].
fn token_spans(line: &str) -> Vec<(usize, &str)> {
    let mut spans = Vec::new();
    let mut start: Option<usize> = None;
    for (i, ch) in line.char_indices() {
        if ch.is_whitespace() {
            if let Some(s) = start.take() {
                spans.push((s + 1, &line[s..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        spans.push((s + 1, &line[s..]));
    }
    spans
}

/// Splits `PWL(a b c …)` / `PULSE(…)` argument lists; the card body may
/// contain spaces inside the parentheses.
fn fn_args<'a>(body: &'a str, name: &str) -> Option<Vec<&'a str>> {
    let upper = body.to_ascii_uppercase();
    let start = upper.find(&format!("{name}("))?;
    let rest = &body[start + name.len() + 1..];
    let end = rest.find(')')?;
    Some(rest[..end].split_whitespace().collect())
}

/// Parses the source specification after the node tokens: DC/PWL/PULSE
/// plus an optional trailing `AC mag phase`. `spec_col` is the 1-based
/// column where the specification starts, used to attribute errors.
fn parse_source(
    line_no: usize,
    spec_col: usize,
    spec: &str,
) -> Result<(Waveform, Option<(f64, f64)>), ParseError> {
    let fail = |m: String| err_at(line_no, spec_col, m);
    let upper = spec.to_ascii_uppercase();
    // Optional AC tail.
    let (body, ac) = if let Some(pos) = upper.find(" AC ") {
        let tail: Vec<&str> = spec[pos + 4..].split_whitespace().collect();
        if tail.len() < 2 {
            return Err(fail("AC needs magnitude and phase".into()));
        }
        let mag = parse_value(tail[0]).map_err(&fail)?;
        let ph = parse_value(tail[1]).map_err(&fail)?;
        (&spec[..pos], Some((mag, ph)))
    } else {
        (spec, None)
    };
    let upper = body.to_ascii_uppercase();
    let wave = if upper.trim_start().starts_with("DC") {
        let toks: Vec<&str> = body.split_whitespace().collect();
        if toks.len() < 2 {
            return Err(fail("DC needs a value".into()));
        }
        Waveform::Dc(parse_value(toks[1]).map_err(&fail)?)
    } else if upper.contains("PWL(") {
        let args = fn_args(body, "PWL").ok_or_else(|| fail("malformed PWL".into()))?;
        if args.len() % 2 != 0 || args.is_empty() {
            return Err(fail("PWL needs time/value pairs".into()));
        }
        let mut pts = Vec::with_capacity(args.len() / 2);
        for pair in args.chunks(2) {
            let t = parse_value(pair[0]).map_err(&fail)?;
            let v = parse_value(pair[1]).map_err(&fail)?;
            pts.push((t, v));
        }
        if !pts.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(fail("PWL times must strictly increase".into()));
        }
        Waveform::Pwl(pts)
    } else if upper.contains("PULSE(") {
        let args = fn_args(body, "PULSE").ok_or_else(|| fail("malformed PULSE".into()))?;
        if args.len() < 7 {
            return Err(fail("PULSE needs 7 arguments".into()));
        }
        let v: Result<Vec<f64>, _> = args.iter().take(7).map(|a| parse_value(a)).collect();
        let v = v.map_err(&fail)?;
        Waveform::Pulse {
            v0: v[0],
            v1: v[1],
            delay: v[2],
            rise: v[3],
            fall: v[4],
            width: v[5],
            period: v[6],
        }
    } else {
        // Bare value: treat as DC.
        let toks: Vec<&str> = body.split_whitespace().collect();
        if toks.is_empty() {
            return Err(fail("source needs a specification".into()));
        }
        Waveform::Dc(parse_value(toks[0]).map_err(&fail)?)
    };
    Ok((wave, ac))
}

/// Parses a SPICE deck into a [`Circuit`].
///
/// Supported cards: `R`, `C`, `L`, `K` (coupling coefficient), `V`, `I`
/// (DC / PWL / PULSE, optional `AC`), `E`, `G`, `F`, `H`; `*` comments,
/// blank lines, a leading title comment and `.end` are accepted.
///
/// # Errors
///
/// [`ParseError`] with the offending line number for any malformed card,
/// unknown reference, or element-validation failure.
pub fn from_spice(deck: &str) -> Result<Circuit, ParseError> {
    let mut ckt = Circuit::new();
    // First pass collects element names → ids for K/F/H references.
    let mut inductors: HashMap<String, (ElementId, f64)> = HashMap::new();
    let mut vsources: HashMap<String, ElementId> = HashMap::new();
    // Deferred cards: (line_no, text).
    let mut deferred: Vec<(usize, String)> = Vec::new();

    for (idx, raw) in deck.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        let lower = line.to_ascii_lowercase();
        if lower.starts_with(".end") {
            break;
        }
        if lower.starts_with('.') {
            continue; // other dot-cards ignored
        }
        let spans = token_spans(line);
        let toks: Vec<&str> = spans.iter().map(|&(_, t)| t).collect();
        let col_of = |k: usize| spans.get(k).map_or(1, |&(c, _)| c);
        // `line` is non-empty (blank lines were skipped above), but stay
        // graceful rather than assume.
        let Some(first) = toks.first().and_then(|t| t.chars().next()) else {
            continue;
        };
        let kind = first.to_ascii_uppercase();
        let name = &toks[0][first.len_utf8()..];
        match kind {
            'R' | 'C' | 'L' => {
                if toks.len() < 4 {
                    return Err(err(
                        line_no,
                        format!("{kind} card needs 2 nodes and a value"),
                    ));
                }
                let a = ckt.node(toks[1]);
                let b = ckt.node(toks[2]);
                let v = parse_value(toks[3]).map_err(|m| err_at(line_no, col_of(3), m))?;
                let id = match kind {
                    'R' => ckt.add_resistor(name, a, b, v),
                    'C' => ckt.add_capacitor(name, a, b, v),
                    _ => ckt.add_inductor(name, a, b, v),
                }
                .map_err(|e| circuit_err(line_no, e))?;
                if kind == 'L' {
                    inductors.insert(format!("L{name}"), (id, v));
                }
            }
            'V' | 'I' => {
                if toks.len() < 4 {
                    return Err(err(line_no, "source card needs 2 nodes and a spec"));
                }
                let p = ckt.node(toks[1]);
                let n = ckt.node(toks[2]);
                // toks.len() >= 4 was checked, so the 4th token's span
                // exists; the spec is everything from there to the end.
                let spec_col = col_of(3);
                let spec = &line[spec_col - 1..];
                let (wave, ac) = parse_source(line_no, spec_col, spec)?;
                if kind == 'I' {
                    ckt.add_isource(name, p, n, wave)
                        .map_err(|e| circuit_err(line_no, e))?;
                } else {
                    let id = match ac {
                        None => ckt.add_vsource(name, p, n, wave),
                        Some((m, ph)) => ckt.add_vsource_ac(name, p, n, wave, m, ph),
                    }
                    .map_err(|e| circuit_err(line_no, e))?;
                    vsources.insert(format!("V{name}"), id);
                }
            }
            'E' | 'G' => {
                if toks.len() < 6 {
                    return Err(err(line_no, "controlled source needs 4 nodes and a gain"));
                }
                let p = ckt.node(toks[1]);
                let n = ckt.node(toks[2]);
                let cp = ckt.node(toks[3]);
                let cn = ckt.node(toks[4]);
                let g = parse_value(toks[5]).map_err(|m| err_at(line_no, col_of(5), m))?;
                if kind == 'E' {
                    ckt.add_vcvs(name, p, n, cp, cn, g)
                } else {
                    ckt.add_vccs(name, p, n, cp, cn, g)
                }
                .map_err(|e| circuit_err(line_no, e))?;
            }
            'K' | 'F' | 'H' => {
                deferred.push((line_no, line.to_string()));
            }
            other => {
                return Err(err_at(
                    line_no,
                    1,
                    format!("unsupported card type: {other}"),
                ));
            }
        }
    }

    // Second pass: cards referencing other elements by name.
    for (line_no, line) in deferred {
        let spans = token_spans(&line);
        let toks: Vec<&str> = spans.iter().map(|&(_, t)| t).collect();
        let col_of = |k: usize| spans.get(k).map_or(1, |&(c, _)| c);
        let Some(first) = toks.first().and_then(|t| t.chars().next()) else {
            continue;
        };
        let kind = first.to_ascii_uppercase();
        let name = &toks[0][first.len_utf8()..];
        match kind {
            'K' => {
                if toks.len() < 4 {
                    return Err(err(line_no, "K card needs two inductors and a coefficient"));
                }
                let &(l1, v1) = inductors.get(toks[1]).ok_or_else(|| {
                    err_at(line_no, col_of(1), format!("unknown inductor {}", toks[1]))
                })?;
                let &(l2, v2) = inductors.get(toks[2]).ok_or_else(|| {
                    err_at(line_no, col_of(2), format!("unknown inductor {}", toks[2]))
                })?;
                let k = parse_value(toks[3]).map_err(|m| err_at(line_no, col_of(3), m))?;
                let m = k * (v1 * v2).sqrt();
                ckt.add_mutual(name, l1, l2, m)
                    .map_err(|e| circuit_err(line_no, e))?;
            }
            'F' | 'H' => {
                if toks.len() < 5 {
                    return Err(err(
                        line_no,
                        "F/H card needs 2 nodes, a V source and a gain",
                    ));
                }
                let p = ckt.node(toks[1]);
                let n = ckt.node(toks[2]);
                let &sense = vsources.get(toks[3]).ok_or_else(|| {
                    err_at(line_no, col_of(3), format!("unknown V source {}", toks[3]))
                })?;
                let g = parse_value(toks[4]).map_err(|m| err_at(line_no, col_of(4), m))?;
                if kind == 'F' {
                    ckt.add_cccs(name, p, n, sense, g)
                } else {
                    ckt.add_ccvs(name, p, n, sense, g)
                }
                .map_err(|e| circuit_err(line_no, e))?;
            }
            other => {
                return Err(err_at(
                    line_no,
                    1,
                    format!("unknown deferred card type: {other}"),
                ));
            }
        }
    }
    Ok(ckt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spice_out::to_spice;
    use crate::transient::{run_transient, TransientSpec};

    #[test]
    fn value_suffixes() {
        let close = |tok: &str, expect: f64| {
            let v = parse_value(tok).unwrap();
            assert!(
                (v - expect).abs() <= 1e-12 * expect.abs(),
                "{tok}: {v} vs {expect}"
            );
        };
        close("100", 100.0);
        close("1k", 1e3);
        close("10meg", 1e7);
        close("2u", 2e-6);
        close("3n", 3e-9);
        close("4p", 4e-12);
        close("5f", 5e-15);
        close("6m", 6e-3);
        close("7g", 7e9);
        close("1.5e-12", 1.5e-12);
        assert!(parse_value("abc").is_err());
    }

    #[test]
    fn value_suffixes_with_unit_text() {
        // Regression: trailing unit letters used to be consumed as a
        // magnitude suffix ("1pf" stripped the 'f' and failed on "1p").
        let close = |tok: &str, expect: f64| {
            let v = parse_value(tok).unwrap();
            assert!(
                (v - expect).abs() <= 1e-12 * expect.abs(),
                "{tok}: {v} vs {expect}"
            );
        };
        close("1pF", 1e-12);
        close("1PF", 1e-12);
        close("10MEG", 1e7);
        close("10MEGohm", 1e7);
        close("10nH", 1e-8);
        close("5kOhm", 5e3);
        close("100mV", 0.1);
        close("3uS", 3e-6);
        close("5ohm", 5.0); // unit text without magnitude suffix
        close("-2.5pF", -2.5e-12);
        close("1e3k", 1e6); // exponent then magnitude suffix
                            // Malformed tokens stay errors.
        assert!(parse_value("p").is_err());
        assert!(parse_value("1p F").is_err());
        assert!(parse_value("1.2.3").is_err());
        assert!(parse_value("inf").is_err());
        assert!(parse_value("nan").is_err());
        assert!(parse_value("1k2").is_err());
        assert!(parse_value("").is_err());
    }

    #[test]
    fn parses_simple_rc_deck() {
        let deck = "\
* test deck
Vsrc in 0 DC 1.0
Rload in out 1k
Cload out 0 1p
.end
";
        let ckt = from_spice(deck).unwrap();
        assert_eq!(ckt.element_count(), 3);
        assert_eq!(ckt.node_count(), 3);
    }

    #[test]
    fn parses_pwl_and_pulse_sources() {
        let deck = "\
V1 a 0 PWL(0 0 1e-9 1.0)
V2 b 0 PULSE(0 1 0 1e-12 1e-12 1e-9 2e-9)
I1 0 c DC 1e-3 AC 1 0
Rc c 0 1k
Ra a 0 1k
Rb b 0 1k
.end
";
        let ckt = from_spice(deck).unwrap();
        assert_eq!(ckt.element_count(), 6);
    }

    #[test]
    fn mutual_coupling_roundtrips_through_k() {
        let deck = "\
L1 a 0 1e-9
L2 b 0 4e-9
K12 L1 L2 0.5
Ra a 0 1.0
Rb b 0 1.0
";
        let ckt = from_spice(deck).unwrap();
        let m = ckt
            .elements()
            .iter()
            .find_map(|e| match e {
                crate::Element::Mutual { m, .. } => Some(*m),
                _ => None,
            })
            .expect("K parsed");
        // M = k·√(L1·L2) = 0.5·2e-9.
        assert!((m - 1.0e-9).abs() < 1e-18);
    }

    #[test]
    fn full_roundtrip_preserves_behaviour() {
        // Build a circuit with every element type, export, re-import, and
        // verify the two simulate identically.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        let src = ckt
            .add_vsource("drv", a, Circuit::GROUND, Waveform::step(1.0, 10e-12))
            .unwrap();
        ckt.add_resistor("1", a, b, 120.0).unwrap();
        let l1 = ckt.add_inductor("1", b, c, 1e-9).unwrap();
        let l2 = ckt.add_inductor("2", c, Circuit::GROUND, 2e-9).unwrap();
        ckt.add_mutual("12", l1, l2, 0.4e-9).unwrap();
        ckt.add_capacitor("L", c, Circuit::GROUND, 50e-15).unwrap();
        let e_out = ckt.node("e_out");
        let f_out = ckt.node("f_out");
        let g_out = ckt.node("g_out");
        let h_out = ckt.node("h_out");
        ckt.add_vcvs("amp", e_out, Circuit::GROUND, c, Circuit::GROUND, 2.0)
            .unwrap();
        ckt.add_resistor("eload", e_out, Circuit::GROUND, 1000.0)
            .unwrap();
        ckt.add_cccs("mir", Circuit::GROUND, f_out, src, 0.5)
            .unwrap();
        ckt.add_resistor("fload", f_out, Circuit::GROUND, 50.0)
            .unwrap();
        ckt.add_vccs("gm", Circuit::GROUND, g_out, c, Circuit::GROUND, 1e-3)
            .unwrap();
        ckt.add_resistor("gload", g_out, Circuit::GROUND, 100.0)
            .unwrap();
        ckt.add_ccvs("tr", h_out, Circuit::GROUND, src, 10.0)
            .unwrap();
        ckt.add_resistor("hload", h_out, Circuit::GROUND, 100.0)
            .unwrap();

        let deck = to_spice(&ckt, "roundtrip");
        let back = from_spice(&deck).unwrap();
        assert_eq!(back.element_count(), ckt.element_count());

        let spec = TransientSpec::new(1e-9, 1e-12);
        let r1 = run_transient(&ckt, &spec).unwrap();
        let r2 = run_transient(&back, &spec).unwrap();
        for node_name in ["c", "e_out", "f_out", "g_out", "h_out"] {
            let mut c1 = ckt.clone();
            let mut c2 = back.clone();
            let n1 = c1.node(node_name);
            let n2 = c2.node(node_name);
            let v1 = r1.voltage(n1).unwrap();
            let v2 = r2.voltage(n2).unwrap();
            for (x, y) in v1.iter().zip(v2.iter()) {
                assert!(
                    (x - y).abs() < 1e-6,
                    "roundtrip mismatch at {node_name}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let deck = "R1 a 0 1k\nXsub a b weird\n";
        let e = from_spice(deck).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unsupported"));

        let e = from_spice("R1 a 0\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = from_spice("K1 L1 L2 0.5\n").unwrap_err();
        assert!(e.message.contains("unknown inductor"));

        let e = from_spice("V1 a 0 PWL(1 0 0.5 1)\nRa a 0 1\n").unwrap_err();
        assert!(e.message.contains("strictly increase"));
    }

    #[test]
    fn errors_carry_column_numbers() {
        // The malformed value is the 4th token, starting at column 9.
        let e = from_spice("R1 a  b  bogus\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.column, Some(10));
        assert!(e.to_string().contains("col 10"));
        assert!(e.message.contains("bogus"));

        // Unknown inductor reference: column of the reference token.
        let e = from_spice("L1 a 0 1n\nK1 L1 Lmissing 0.5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.column, Some(7));

        // Source spec errors point at the start of the spec.
        let e = from_spice("V1 a 0 DC oops\n").unwrap_err();
        assert_eq!(e.column, Some(8));

        // A multi-byte card letter is an unsupported card, not a slice
        // through the middle of a UTF-8 character.
        let e = from_spice("R1 a 0 1k\né1 a 0 1k\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.column, Some(1));
        assert!(e.message.contains("unsupported card type: é"));
    }

    #[test]
    fn dot_cards_and_comments_skipped() {
        let deck = "* title\n.tran 1n 10n\nR1 a 0 1k\n.end\nR2 never 0 1k\n";
        let ckt = from_spice(deck).unwrap();
        assert_eq!(ckt.element_count(), 1, "cards after .end ignored");
    }
}
