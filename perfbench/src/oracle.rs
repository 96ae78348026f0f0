//! Independent output check: bit-parallel simulation of the emitted BLIF
//! against the PLA's on/dc/off sets.
//!
//! It reads the BLIF text the user receives (not the in-memory netlist)
//! and uses neither the BDD kernel nor the decomposer, so a bug shared by
//! the synthesis and its built-in BDD verifier still shows here.
//!
//! Up to [`EXHAUSTIVE_MAX_INPUTS`] inputs every minterm is simulated. Above
//! that the check uses seeded random vectors plus random points inside
//! every cube, so each cube is exercised.

use std::collections::HashMap;

use benchmarks::SplitMix64;
use pla::{Cube, OutputValue, Pla, Trit};

/// Largest input count simulated exhaustively (2^20 minterms).
const EXHAUSTIVE_MAX_INPUTS: usize = 20;
/// Random 64-vector words simulated above the exhaustive limit.
const RANDOM_WORDS: usize = 256;
/// Random points drawn inside each cube above the exhaustive limit.
const POINTS_PER_CUBE: usize = 4;
/// Words simulated per batch (bounds the per-signal buffer).
const BATCH: usize = 64;

/// Checks that `blif` implements `pla` on every care minterm simulated.
///
/// # Errors
///
/// Returns a description of the first problem: a BLIF the checker cannot
/// read, a shape mismatch, or an output that is 0 on an on-set minterm or
/// 1 on an off-set minterm.
pub fn check(pla: &Pla, blif: &str, seed: u64) -> Result<(), String> {
    let net = Circuit::parse(blif)?;
    let n = pla.num_inputs();
    if net.num_inputs != n || net.outputs.len() != pla.num_outputs() {
        return Err(format!(
            "BLIF has {} inputs / {} outputs, PLA has {n} / {}",
            net.num_inputs,
            net.outputs.len(),
            pla.num_outputs()
        ));
    }
    let vectors = if n <= EXHAUSTIVE_MAX_INPUTS {
        Vectors::exhaustive(n)
    } else {
        Vectors::sampled(pla, seed)
    };
    let spec = Spec::build(pla, &vectors);
    let valid = vectors.valid();
    let mut vals = vec![0u64; net.num_signals * BATCH];
    for start in (0..vectors.words).step_by(BATCH) {
        let len = BATCH.min(vectors.words - start);
        net.simulate(&vectors, start, len, &mut vals);
        for (out, &sig) in net.outputs.iter().enumerate() {
            for k in 0..len {
                let w = start + k;
                let got = vals[sig * BATCH + k];
                let (on, off) = spec.care(out, w);
                let wrong = ((on & !got) | (off & got)) & valid;
                if wrong != 0 {
                    return Err(format!(
                        "output {out} wrong on {} simulated minterm(s) of word {w}",
                        wrong.count_ones()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The simulated input vectors: 64 per word.
struct Vectors {
    num_inputs: usize,
    words: usize,
    /// `sampled[i][w]`: input `i` in word `w`; empty for exhaustive.
    sampled: Vec<Vec<u64>>,
}

/// Lane patterns of inputs 0..6 within one exhaustive word.
const LOW_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl Vectors {
    /// Every minterm: lane `k` of word `w` is minterm `64·w + k`.
    fn exhaustive(n: usize) -> Self {
        Vectors { num_inputs: n, words: (1usize << n.saturating_sub(6)), sampled: Vec::new() }
    }

    /// Random words, then [`POINTS_PER_CUBE`] random points inside each
    /// cube, packed one per lane.
    fn sampled(pla: &Pla, seed: u64) -> Self {
        let n = pla.num_inputs();
        let points = pla.cubes().len() * POINTS_PER_CUBE;
        let words = RANDOM_WORDS + points.div_ceil(64);
        let mut rng = SplitMix64::new(seed);
        let mut sampled: Vec<Vec<u64>> =
            (0..n).map(|_| (0..words).map(|_| rng.next_u64()).collect()).collect();
        for (p, cube) in (0..points).map(|p| (p, &pla.cubes()[p / POINTS_PER_CUBE])) {
            let (w, bit) = (RANDOM_WORDS + p / 64, 1u64 << (p % 64));
            for (column, t) in sampled.iter_mut().zip(cube.inputs()) {
                match t {
                    Trit::One => column[w] |= bit,
                    Trit::Zero => column[w] &= !bit,
                    Trit::Dc => {}
                }
            }
        }
        Vectors { num_inputs: n, words, sampled }
    }

    fn word(&self, input: usize, w: usize) -> u64 {
        if !self.sampled.is_empty() {
            self.sampled[input][w]
        } else if input < 6 {
            LOW_PATTERNS[input]
        } else if (w >> (input - 6)) & 1 == 1 {
            !0
        } else {
            0
        }
    }

    /// Lanes of a word that hold a real vector (fewer than 64 minterms
    /// exist below 6 inputs).
    fn valid(&self) -> u64 {
        if self.sampled.is_empty() && self.num_inputs < 6 {
            (1u64 << (1 << self.num_inputs)) - 1
        } else {
            !0
        }
    }
}

/// Per-output on/dc/off masks over every simulated word.
struct Spec {
    words: usize,
    rest_is_offset: bool,
    /// On, don't-care and off masks, each indexed `output * words + word`.
    sets: [Vec<u64>; 3],
}

const ON: usize = 0;
const DC: usize = 1;
const OFF: usize = 2;

impl Spec {
    fn build(pla: &Pla, vectors: &Vectors) -> Self {
        let words = vectors.words;
        let size = pla.num_outputs() * words;
        let zero_is_offset = pla.pla_type().zero_is_offset();
        let mut sets = [vec![0; size], vec![0; size], vec![0; size]];
        for cube in pla.cubes() {
            // (set, first word of the output's row) for each output the cube feeds.
            let targets: Vec<(usize, usize)> = cube
                .outputs()
                .iter()
                .enumerate()
                .filter_map(|(out, value)| {
                    let set = match value {
                        OutputValue::One => ON,
                        OutputValue::DontCare => DC,
                        OutputValue::Zero if zero_is_offset => OFF,
                        _ => return None,
                    };
                    Some((set, out * words))
                })
                .collect();
            let mut mark = |w: usize, lanes: u64| {
                for &(set, row) in &targets {
                    sets[set][row + w] |= lanes;
                }
            };
            if vectors.sampled.is_empty() {
                for_each_word_exhaustive(cube, words, &mut mark);
            } else {
                for w in 0..words {
                    let mut lanes = !0u64;
                    for (column, t) in vectors.sampled.iter().zip(cube.inputs()) {
                        match t {
                            Trit::One => lanes &= column[w],
                            Trit::Zero => lanes &= !column[w],
                            Trit::Dc => continue,
                        }
                        if lanes == 0 {
                            break;
                        }
                    }
                    if lanes != 0 {
                        mark(w, lanes);
                    }
                }
            }
        }
        Spec { words, rest_is_offset: pla.pla_type().rest_is_offset(), sets }
    }

    /// `(must be 1, must be 0)` lanes of output `out` in word `w`. The
    /// on-set wins over the don't-care set, which wins over the off-set.
    fn care(&self, out: usize, w: usize) -> (u64, u64) {
        let i = out * self.words + w;
        let (on, dc) = (self.sets[ON][i], self.sets[DC][i]);
        let off = if self.rest_is_offset { !(on | dc) } else { self.sets[OFF][i] & !(on | dc) };
        (on, off)
    }
}

/// Calls `mark(word, lanes)` for every exhaustive word the cube covers,
/// visiting only the words whose high inputs agree with the cube (the free
/// high inputs are enumerated as submasks).
fn for_each_word_exhaustive(cube: &Cube, words: usize, mark: &mut impl FnMut(usize, u64)) {
    let mut lanes = !0u64;
    let (mut fixed, mut value) = (0usize, 0usize);
    for (i, t) in cube.inputs().iter().enumerate() {
        let one = match t {
            Trit::Dc => continue,
            Trit::One => true,
            Trit::Zero => false,
        };
        if i < 6 {
            lanes &= if one { LOW_PATTERNS[i] } else { !LOW_PATTERNS[i] };
        } else {
            fixed |= 1 << (i - 6);
            value |= usize::from(one) << (i - 6);
        }
    }
    let free = (words - 1) & !fixed;
    let mut sub = 0usize;
    loop {
        mark(value | sub, lanes);
        if sub == free {
            break;
        }
        sub = sub.wrapping_sub(free) & free;
    }
}

/// A BLIF model flattened to signals in evaluation order.
struct Circuit {
    num_inputs: usize,
    num_signals: usize,
    /// Gates in topological order.
    gates: Vec<Gate>,
    /// Driving signal of each declared output, in declaration order.
    outputs: Vec<usize>,
}

/// One `.names` block: `out = OR(rows)`, complemented if the rows list
/// the off-set.
struct Gate {
    out: usize,
    fanins: Vec<usize>,
    rows: Vec<Vec<Trit>>,
    offset_rows: bool,
}

impl Circuit {
    fn parse(text: &str) -> Result<Self, String> {
        let mut ids: HashMap<String, usize> = HashMap::new();
        let mut intern = |name: &str| -> usize {
            let next = ids.len();
            *ids.entry(name.to_owned()).or_insert(next)
        };
        let mut num_inputs = 0;
        let mut output_names: Vec<&str> = Vec::new();
        let mut defs: Vec<Gate> = Vec::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some(".model") | Some(".end") => {}
                Some(".inputs") => {
                    for name in tokens {
                        if intern(name) != num_inputs {
                            return Err(format!("input {name} declared twice"));
                        }
                        num_inputs += 1;
                    }
                }
                Some(".outputs") => output_names.extend(tokens),
                Some(".names") => {
                    let signals: Vec<usize> = tokens.map(&mut intern).collect();
                    let (&out, fanins) =
                        signals.split_last().ok_or(".names without signals".to_owned())?;
                    defs.push(Gate {
                        out,
                        fanins: fanins.to_vec(),
                        rows: Vec::new(),
                        offset_rows: false,
                    });
                }
                Some(directive) if directive.starts_with('.') => {
                    return Err(format!("unsupported BLIF directive {directive}"));
                }
                Some(_) => {
                    let gate = defs.last_mut().ok_or("cover row outside .names".to_owned())?;
                    let (pattern, value) = match (gate.fanins.is_empty(), line.split_once(' ')) {
                        (true, _) => ("", line),
                        (false, Some((p, v))) => (p, v.trim()),
                        (false, None) => return Err(format!("malformed cover row {line:?}")),
                    };
                    if pattern.len() != gate.fanins.len() {
                        return Err(format!("cover row {line:?} has the wrong width"));
                    }
                    let row = pattern
                        .chars()
                        .map(|c| match c {
                            '1' => Ok(Trit::One),
                            '0' => Ok(Trit::Zero),
                            '-' => Ok(Trit::Dc),
                            _ => Err(format!("bad cover character {c:?}")),
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let offset = match value {
                        "1" => false,
                        "0" => true,
                        _ => return Err(format!("bad cover output {value:?}")),
                    };
                    if !gate.rows.is_empty() && gate.offset_rows != offset {
                        return Err("cover mixes on-set and off-set rows".to_owned());
                    }
                    gate.offset_rows = offset;
                    gate.rows.push(row);
                }
                None => {}
            }
        }
        let outputs = output_names
            .iter()
            .map(|name| ids.get(*name).copied().ok_or(format!("output {name} is undriven")))
            .collect::<Result<Vec<_>, _>>()?;
        let num_signals = ids.len();
        let gates = topological(num_inputs, num_signals, defs, &outputs)?;
        Ok(Circuit { num_inputs, num_signals, gates, outputs })
    }

    /// Evaluates words `start..start + len` into `vals[signal * BATCH + k]`.
    fn simulate(&self, vectors: &Vectors, start: usize, len: usize, vals: &mut [u64]) {
        for i in 0..self.num_inputs {
            for k in 0..len {
                vals[i * BATCH + k] = vectors.word(i, start + k);
            }
        }
        for gate in &self.gates {
            for k in 0..len {
                let mut acc = 0u64;
                for row in &gate.rows {
                    let mut term = !0u64;
                    for (&fanin, t) in gate.fanins.iter().zip(row) {
                        match t {
                            Trit::One => term &= vals[fanin * BATCH + k],
                            Trit::Zero => term &= !vals[fanin * BATCH + k],
                            Trit::Dc => {}
                        }
                    }
                    acc |= term;
                }
                vals[gate.out * BATCH + k] = if gate.offset_rows { !acc } else { acc };
            }
        }
    }
}

/// Orders the gates that drive `outputs` so every fanin comes first.
fn topological(
    num_inputs: usize,
    num_signals: usize,
    defs: Vec<Gate>,
    outputs: &[usize],
) -> Result<Vec<Gate>, String> {
    let mut defined_by: Vec<Option<usize>> = vec![None; num_signals];
    for (g, gate) in defs.iter().enumerate() {
        if gate.out < num_inputs || defined_by[gate.out].replace(g).is_some() {
            return Err(format!("signal {} is driven twice", gate.out));
        }
    }
    // 0 = unvisited, 1 = on the stack, 2 = done.
    let mut state = vec![0u8; num_signals];
    let mut order = Vec::new();
    for &root in outputs {
        let mut stack = vec![(root, false)];
        while let Some((sig, expanded)) = stack.pop() {
            if sig < num_inputs || state[sig] == 2 {
                continue;
            }
            let g = defined_by[sig].ok_or(format!("signal {sig} is undriven"))?;
            if expanded {
                state[sig] = 2;
                order.push(g);
                continue;
            }
            if state[sig] == 1 {
                return Err("combinational cycle".to_owned());
            }
            state[sig] = 1;
            stack.push((sig, true));
            for &fanin in &defs[g].fanins {
                if fanin >= num_inputs && state[fanin] == 1 {
                    return Err("combinational cycle".to_owned());
                }
                stack.push((fanin, false));
            }
        }
    }
    let mut slots: Vec<Option<Gate>> = defs.into_iter().map(Some).collect();
    Ok(order.into_iter().map(|g| slots[g].take().expect("each gate is ordered once")).collect())
}
