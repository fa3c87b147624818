//! Property-style tests of the MNA engine on randomly generated passive
//! RC/RLC ladders: physical invariants that must hold for *any* passive
//! network, regardless of topology or element values. Inputs come from
//! the workspace's deterministic [`XorShift64`] generator so the suite
//! is reproducible and needs no external crates.

use vpec_circuit::ac::{run_ac, AcSpec};
use vpec_circuit::dc::solve_dc;
use vpec_circuit::spice_in::from_spice;
use vpec_circuit::spice_out::to_spice;
use vpec_circuit::transient::{run_transient, TransientSpec};
use vpec_circuit::{Circuit, NodeId, Waveform};
use vpec_numerics::rng::XorShift64;

const CASES: usize = 40;

/// A random RC ladder of `n` sections driven by a `v_src` step.
fn ladder(rs: &[f64], cs: &[f64], v_src: f64) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.add_vsource("src", prev, Circuit::GROUND, Waveform::step(v_src, 1e-12))
        .expect("valid");
    let mut nodes = Vec::new();
    for (k, (&r, &c)) in rs.iter().zip(cs.iter()).enumerate() {
        let node = ckt.node(&format!("n{k}"));
        ckt.add_resistor(&format!("r{k}"), prev, node, r)
            .expect("valid");
        ckt.add_capacitor(&format!("c{k}"), node, Circuit::GROUND, c)
            .expect("valid");
        nodes.push(node);
        prev = node;
    }
    (ckt, nodes)
}

/// Random section values: resistances in `[10, 10k)` Ω and capacitances
/// in `[0.1, 100)` pF.
fn random_sections(rng: &mut XorShift64, max_n: usize) -> (Vec<f64>, Vec<f64>) {
    let n = rng.range_usize(1, max_n + 1);
    let rs: Vec<f64> = (0..n).map(|_| rng.range_f64(10.0, 10_000.0)).collect();
    let cs: Vec<f64> = (0..n).map(|_| rng.range_f64(0.1, 100.0) * 1e-12).collect();
    (rs, cs)
}

/// A passive RC ladder driven by a positive step never exceeds the
/// source voltage and never goes negative (no energy creation).
/// The step resolves the ladder's fastest node time constant `c_k/G_kk`
/// (`G_kk` the node's conductance to its neighbours), where the
/// trapezoidal rule keeps the exact solution's bounds: with
/// `dt ≤ 2·c_k/G_kk` at every node, the step's propagator `C − dt·G/2`
/// is entrywise non-negative. A coarser step rings on the stiff nodes —
/// a numerical artifact, not energy creation.
#[test]
fn rc_ladder_voltages_bounded() {
    let mut rng = XorShift64::new(0x2001);
    for _ in 0..CASES {
        let (rs, cs) = random_sections(&mut rng, 5);
        let v_src = rng.range_f64(0.1, 10.0);
        let (ckt, nodes) = ladder(&rs, &cs, v_src);
        // Simulate long enough relative to the largest time constant.
        let tau: f64 = rs.iter().sum::<f64>() * cs.iter().sum::<f64>();
        let tau_fast = (0..rs.len())
            .map(|k| cs[k] / (1.0 / rs[k] + rs.get(k + 1).map_or(0.0, |r| 1.0 / r)))
            .fold(f64::INFINITY, f64::min);
        let spec = TransientSpec::new(tau.max(1e-9) * 2.0, (tau.max(1e-9) / 200.0).min(tau_fast));
        let res = run_transient(&ckt, &spec).expect("passive circuit simulates");
        for &n in &nodes {
            for v in res.voltage(n).expect("recorded") {
                assert!(v >= -1e-9, "monotone RC ladder voltage went negative: {v}");
                assert!(v <= v_src * (1.0 + 1e-9), "RC ladder exceeded source: {v}");
            }
        }
    }
}

/// Every node of the ladder settles to the DC solution of the same
/// netlist.
#[test]
fn transient_settles_to_dc() {
    let mut rng = XorShift64::new(0x2002);
    for _ in 0..CASES {
        let (rs, cs) = random_sections(&mut rng, 4);
        let v_src = rng.range_f64(0.1, 5.0);
        let (ckt, nodes) = ladder(&rs, &cs, v_src);
        let tau: f64 = rs.iter().sum::<f64>() * cs.iter().sum::<f64>();
        let window = tau.max(1e-10) * 20.0;
        let res =
            run_transient(&ckt, &TransientSpec::new(window, window / 4000.0)).expect("simulates");
        // DC with the post-step source value.
        let mut dc_ckt = Circuit::new();
        let mut prev = dc_ckt.node("in");
        dc_ckt
            .add_vsource("src", prev, Circuit::GROUND, Waveform::dc(v_src))
            .expect("valid");
        for (k, (&r, &c)) in rs.iter().zip(cs.iter()).enumerate() {
            let node = dc_ckt.node(&format!("n{k}"));
            dc_ckt
                .add_resistor(&format!("r{k}"), prev, node, r)
                .expect("valid");
            dc_ckt
                .add_capacitor(&format!("c{k}"), node, Circuit::GROUND, c)
                .expect("valid");
            prev = node;
        }
        let dc = solve_dc(&dc_ckt).expect("solvable");
        for &n in &nodes {
            let settled = *res.voltage(n).expect("recorded").last().expect("nonempty");
            let expected = dc.voltage(n).expect("node of this circuit");
            assert!(
                (settled - expected).abs() < 1e-3 * v_src,
                "node {n:?}: settled {settled} vs DC {expected}"
            );
        }
    }
}

/// A random RC ladder with an inductor from every ladder node to ground
/// and up to two mutual couplings between those inductors.
fn coupled_ladder(rng: &mut XorShift64) -> (Circuit, Vec<NodeId>) {
    let n = rng.range_usize(1, 7);
    let rs: Vec<f64> = (0..n).map(|_| rng.range_f64(10.0, 100_000.0)).collect();
    let cs: Vec<f64> = (0..n).map(|_| rng.range_f64(0.1, 100.0) * 1e-12).collect();
    let v_src = rng.range_f64(-5.0, 5.0);
    let (mut ckt, nodes) = ladder(&rs, &cs, v_src);
    let mut l_ids = Vec::new();
    for (k, &nn) in nodes.iter().enumerate() {
        let id = ckt
            .add_inductor(
                &format!("lx{k}"),
                nn,
                Circuit::GROUND,
                1e-9 * (k + 1) as f64,
            )
            .expect("valid");
        l_ids.push(id);
    }
    let n_mutuals = rng.range_usize(0, 3);
    for k in 0..n_mutuals {
        let coef = rng.range_f64(0.1, 0.9);
        if l_ids.len() >= 2 {
            let a = k % l_ids.len();
            let b = (k + 1) % l_ids.len();
            if a != b {
                let la = (1e-9 * (a + 1) as f64) * (1e-9 * (b + 1) as f64);
                let _ = ckt.add_mutual(&format!("kx{k}"), l_ids[a], l_ids[b], coef * la.sqrt());
            }
        }
    }
    (ckt, nodes)
}

/// Any circuit this generator produces survives a SPICE-deck roundtrip
/// (export → parse) with identical structure and identical DC
/// solution at every node.
#[test]
fn spice_roundtrip_preserves_dc() {
    let mut rng = XorShift64::new(0x2004);
    for _ in 0..CASES {
        let (ckt, nodes) = coupled_ladder(&mut rng);
        let deck = to_spice(&ckt, "roundtrip property");
        let back = from_spice(&deck).expect("own decks always parse");
        assert_eq!(back.element_count(), ckt.element_count());
        assert_eq!(back.node_count(), ckt.node_count());
        let dc_a = solve_dc(&ckt).expect("solvable");
        let dc_b = solve_dc(&back).expect("solvable");
        let mut ckt2 = ckt.clone();
        let mut back2 = back.clone();
        for &nn in &nodes {
            // Node ids may be assigned in a different order after parsing:
            // compare by name.
            let name = ckt2.node_name(nn).to_string();
            let n_a = ckt2.node(&name);
            let n_b = back2.node(&name);
            let (va, vb) = (
                dc_a.voltage(n_a).expect("node of this circuit"),
                dc_b.voltage(n_b).expect("node of the parsed circuit"),
            );
            assert!(
                (va - vb).abs() <= 1e-9 * va.abs().max(1.0),
                "DC mismatch at {name}: {va} vs {vb}"
            );
        }
    }
}

/// AC magnitude of a passive divider never exceeds the source
/// magnitude, and decreases monotonically along the ladder.
#[test]
fn ac_gain_bounded_by_one() {
    let mut rng = XorShift64::new(0x2005);
    for _ in 0..CASES {
        let (rs, cs) = random_sections(&mut rng, 4);
        let freq = 10f64.powf(rng.range_f64(3.0, 10.0));
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("in");
        ckt.add_vsource_ac("src", prev, Circuit::GROUND, Waveform::dc(0.0), 1.0, 0.0)
            .expect("valid");
        let mut nodes = Vec::new();
        for (k, (&r, &c)) in rs.iter().zip(cs.iter()).enumerate() {
            let node = ckt.node(&format!("n{k}"));
            ckt.add_resistor(&format!("r{k}"), prev, node, r)
                .expect("valid");
            ckt.add_capacitor(&format!("c{k}"), node, Circuit::GROUND, c)
                .expect("valid");
            nodes.push(node);
            prev = node;
        }
        let res = run_ac(&ckt, &AcSpec::points(vec![freq])).expect("ok");
        let mut last = 1.0 + 1e-9;
        for &n in &nodes {
            let m = res.magnitude(n).expect("in circuit")[0];
            assert!(m <= last, "RC ladder gain must decrease along the chain");
            last = m;
        }
    }
}

/// A random character boundary of `s` (0 and `s.len()` included).
fn char_boundary(rng: &mut XorShift64, s: &str) -> usize {
    let bounds: Vec<usize> = s.char_indices().map(|(i, _)| i).chain([s.len()]).collect();
    bounds[rng.range_usize(0, bounds.len())]
}

/// Applies one random mutation to a deck: delete, duplicate or swap
/// tokens, truncate a line, change a card letter, or splice in multi-byte
/// characters and parentheses.
fn mutate(rng: &mut XorShift64, lines: &mut [String]) {
    const SPLICES: [&str; 9] = ["é", "µ", "€", "𝄞", "(", ")", "PWL(", "PULSE(", " AC "];
    const LETTERS: [&str; 14] = [
        "R", "C", "L", "K", "V", "I", "E", "G", "F", "H", "X", ".", "*", "é",
    ];
    let li = rng.range_usize(0, lines.len());
    let mut toks: Vec<String> = lines[li].split_whitespace().map(str::to_string).collect();
    match rng.range_usize(0, 6) {
        0 if !toks.is_empty() => {
            toks.remove(rng.range_usize(0, toks.len()));
        }
        1 if !toks.is_empty() => {
            let k = rng.range_usize(0, toks.len());
            toks.insert(k, toks[k].clone());
        }
        2 => {
            // Swap with a token of any line, this one included.
            let lj = rng.range_usize(0, lines.len());
            let other: Vec<String> = lines[lj].split_whitespace().map(str::to_string).collect();
            if toks.is_empty() || other.is_empty() {
                return;
            }
            let (a, b) = (
                rng.range_usize(0, toks.len()),
                rng.range_usize(0, other.len()),
            );
            if li == lj {
                toks.swap(a, b);
            } else {
                let mut other = other;
                std::mem::swap(&mut toks[a], &mut other[b]);
                lines[lj] = other.join(" ");
            }
        }
        3 => {
            let cut = char_boundary(rng, &lines[li]);
            lines[li].truncate(cut);
            return;
        }
        4 if !toks.is_empty() => {
            let rest: String = toks[0].chars().skip(1).collect();
            toks[0] = format!("{}{rest}", LETTERS[rng.range_usize(0, LETTERS.len())]);
        }
        5 => {
            let at = char_boundary(rng, &lines[li]);
            lines[li].insert_str(at, SPLICES[rng.range_usize(0, SPLICES.len())]);
            return;
        }
        _ => return,
    }
    lines[li] = toks.join(" ");
}

/// Mutation fuzzing of the SPICE parser with a fixed seed and budget:
/// decks this crate writes, mutated at the token and character level,
/// must parse or fail with a `ParseError` naming a deck line — never
/// panic.
#[test]
fn mutated_decks_parse_or_fail_with_a_line_number() {
    const MUTANTS: usize = 2000;
    let mut rng = XorShift64::new(0x2006);
    let decks: Vec<String> = (0..8)
        .map(|_| to_spice(&coupled_ladder(&mut rng).0, "mutation seed"))
        .collect();
    for m in 0..MUTANTS {
        let mut lines: Vec<String> = decks[m % decks.len()].lines().map(str::to_string).collect();
        for _ in 0..rng.range_usize(1, 4) {
            mutate(&mut rng, &mut lines);
        }
        let deck = lines.join("\n");
        match std::panic::catch_unwind(|| from_spice(&deck)) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => assert!(
                (1..=lines.len()).contains(&e.line),
                "mutant {m}: error line {} outside the deck ({e}):\n{deck}",
                e.line
            ),
            Err(_) => panic!("mutant {m}: from_spice panicked on:\n{deck}"),
        }
    }
}
