//! Crash-safe artifact spill: content-addressed on-disk persistence of
//! compiled artifacts, keyed identically to the in-memory LRU.
//!
//! Every successful compile is serialized to
//! `<dir>/<key fingerprint as 16 hex digits>.qart` in a line-oriented,
//! versioned text format with a whole-body FNV-1a checksum in the
//! header. Recovery re-reads the directory in sorted filename order
//! (determinism), verifies the checksum, re-parses the **full
//! [`CacheKey`]** (spec, options, topology fingerprint, calibration
//! epoch), recomputes the fingerprint and compares it against the
//! filename — a torn write, a flipped bit or a truncated file fails one
//! of those gates and is skipped as corrupt, never served. Epoch-keyed
//! (VIC) entries additionally require the *current* epoch: the
//! `epoch.meta` sidecar persists `(epoch, calibration fingerprint)`, so
//! a restart under different calibration bumps the epoch and every
//! spilled VIC artifact goes stale exactly like its in-memory twin
//! would on a hot reload.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::str::SplitWhitespace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qcircuit::{Angle, Circuit, Gate, Instruction, ParamId, ParamTable};
use qcompile::{
    Compilation, CompileOptions, CompiledArtifact, CompiledCircuit, CphaseOp, InitialMapping,
    QaoaSpec, Resilience,
};
use qroute::Layout;

use crate::cache::CacheKey;

const MAGIC: &str = "qspill 1";
const META_MAGIC: &str = "qspill-meta 1";

/// One recovered spill entry: the fingerprint (from the verified
/// filename), the full key, and the artifact.
pub(crate) type RecoveredEntry = (u64, CacheKey, Arc<CompiledArtifact>);

/// The on-disk artifact store. All I/O is best-effort from the
/// service's perspective: a failed save or unlink costs durability,
/// never correctness, because recovery independently verifies every
/// byte it reads.
#[derive(Debug)]
pub(crate) struct SpillStore {
    dir: PathBuf,
    /// Spills kept because their entry was still live when the compile
    /// published (see [`SpillStore::settle`]).
    saved: AtomicU64,
    /// Entries the last [`SpillStore::recover`] scan brought back.
    pub recovered: u64,
    /// Files that scan refused on checksum/parse/fingerprint grounds.
    pub corrupt: u64,
    /// Structurally valid files that scan dropped because their
    /// topology or calibration epoch no longer matches (exactly like a
    /// reload would).
    pub stale: u64,
}

impl SpillStore {
    /// Opens (creating if needed) the spill directory.
    pub fn new(dir: PathBuf) -> io::Result<SpillStore> {
        fs::create_dir_all(&dir)?;
        Ok(SpillStore {
            dir,
            saved: AtomicU64::new(0),
            recovered: 0,
            corrupt: 0,
            stale: 0,
        })
    }

    fn artifact_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.qart"))
    }

    /// Settles the spill written for entry `fp` once its compile has
    /// published: kept (and counted as saved) while the entry is
    /// `live`, unlinked when it was evicted or invalidated mid-compile
    /// so a restart cannot resurrect it.
    pub fn settle(&self, fp: u64, live: bool) {
        if live {
            self.saved.fetch_add(1, Ordering::Relaxed);
        } else {
            self.unlink(fp);
        }
    }

    /// Spills kept since startup.
    pub fn saved(&self) -> u64 {
        self.saved.load(Ordering::Relaxed)
    }

    /// Serializes `(key, artifact)` under fingerprint `fp`.
    pub fn save(&self, fp: u64, key: &CacheKey, artifact: &CompiledArtifact) -> io::Result<()> {
        let body = encode_entry(key, artifact)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unencodable gate"))?;
        let mut out = String::with_capacity(body.len() + 64);
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "checksum {:016x}", qtrace::fnv1a64(body.as_bytes()));
        out.push_str(&body);
        fs::write(self.artifact_path(fp), out)
    }

    /// Removes the spilled file of an evicted/invalidated entry.
    pub fn unlink(&self, fp: u64) {
        let _ = fs::remove_file(self.artifact_path(fp));
    }

    /// Persists the current `(epoch, calibration fingerprint)` so a
    /// restart can tell live VIC spills from stale ones.
    pub fn write_meta(&self, epoch: u64, calibration_fp: Option<u64>) -> io::Result<()> {
        let mut body = String::new();
        let _ = writeln!(body, "epoch {epoch}");
        match calibration_fp {
            Some(fp) => {
                let _ = writeln!(body, "calibration {fp:016x}");
            }
            None => {
                let _ = writeln!(body, "calibration -");
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{META_MAGIC}");
        let _ = writeln!(out, "checksum {:016x}", qtrace::fnv1a64(body.as_bytes()));
        out.push_str(&body);
        fs::write(self.dir.join("epoch.meta"), out)
    }

    /// Reads the epoch sidecar; `None` when absent or corrupt.
    pub fn read_meta(&self) -> Option<(u64, Option<u64>)> {
        let text = fs::read_to_string(self.dir.join("epoch.meta")).ok()?;
        let body = verify_header(&text, META_MAGIC)?;
        let mut epoch = None;
        let mut calibration = None;
        for line in body.lines() {
            let mut words = line.split_whitespace();
            match words.next()? {
                "epoch" => epoch = Some(words.next()?.parse::<u64>().ok()?),
                "calibration" => {
                    let word = words.next()?;
                    calibration = Some(if word == "-" {
                        None
                    } else {
                        Some(u64::from_str_radix(word, 16).ok()?)
                    });
                }
                _ => return None,
            }
        }
        Some((epoch?, calibration?))
    }

    /// Scans the directory and rebuilds every verifiable entry that is
    /// still live under `topology_fp`. Epoch-keyed (VIC) entries are
    /// kept only when `vic_epoch` is `Some(e)` and matches theirs;
    /// `None` means calibration continuity could not be proven and
    /// every VIC spill is dropped as stale. Returns the verified
    /// entries in sorted-filename order and keeps the scan's tallies in
    /// `recovered`, `corrupt` and `stale`.
    pub fn recover(&mut self, topology_fp: u64, vic_epoch: Option<u64>) -> Vec<RecoveredEntry> {
        let mut entries = Vec::new();
        (self.corrupt, self.stale) = (0, 0);
        let mut names: Vec<PathBuf> = match fs::read_dir(&self.dir) {
            Ok(dir) => dir
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "qart"))
                .collect(),
            Err(_) => Vec::new(),
        };
        names.sort();
        for path in names {
            let fp = match path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok())
            {
                Some(fp) => fp,
                None => {
                    self.corrupt += 1;
                    continue;
                }
            };
            let entry = fs::read_to_string(&path)
                .ok()
                .and_then(|text| decode_entry(&text));
            match entry {
                Some((key, artifact)) if key.fingerprint() == fp => {
                    // MSRV 1.75 forbids `Option::is_none_or` here: a
                    // VIC key (epoch in-key) is live only under the
                    // current epoch; epoch-free keys always survive.
                    let epoch_live = match key.calibration_epoch {
                        Some(epoch) => vic_epoch == Some(epoch),
                        None => true,
                    };
                    let live = key.topology_fp == topology_fp && epoch_live;
                    if live {
                        entries.push((fp, key, Arc::new(artifact)));
                    } else {
                        self.stale += 1;
                        let _ = fs::remove_file(&path);
                    }
                }
                Some(_) => self.corrupt += 1,
                None => self.corrupt += 1,
            }
        }
        self.recovered = entries.len() as u64;
        entries
    }
}

/// Splits `text` into verified body: first line must equal `magic`,
/// second must carry the body checksum.
fn verify_header<'a>(text: &'a str, magic: &str) -> Option<&'a str> {
    let rest = text.strip_prefix(magic)?.strip_prefix('\n')?;
    let (checksum_line, body) = rest.split_once('\n')?;
    let declared = u64::from_str_radix(checksum_line.strip_prefix("checksum ")?, 16).ok()?;
    (qtrace::fnv1a64(body.as_bytes()) == declared).then_some(body)
}

fn encode_angle(out: &mut String, angle: &Angle) {
    match angle {
        Angle::Const(v) => {
            let _ = write!(out, "c{:016x}", v.to_bits());
        }
        Angle::Sym { param, scale } => {
            let _ = write!(out, "s{}x{:016x}", param.0, scale.to_bits());
        }
    }
}

fn decode_angle(word: &str) -> Option<Angle> {
    if let Some(hex) = word.strip_prefix('c') {
        return Some(Angle::Const(f64::from_bits(
            u64::from_str_radix(hex, 16).ok()?,
        )));
    }
    let (param, scale) = word.strip_prefix('s')?.split_once('x')?;
    Some(Angle::Sym {
        param: ParamId(param.parse().ok()?),
        scale: f64::from_bits(u64::from_str_radix(scale, 16).ok()?),
    })
}

/// `(tag, angle count)` for every serializable gate.
fn gate_tag(gate: &Gate) -> Option<(&'static str, Vec<Angle>)> {
    Some(match gate {
        Gate::Id => ("id", vec![]),
        Gate::H => ("h", vec![]),
        Gate::X => ("x", vec![]),
        Gate::Y => ("y", vec![]),
        Gate::Z => ("z", vec![]),
        Gate::S => ("s", vec![]),
        Gate::Sdg => ("sdg", vec![]),
        Gate::T => ("t", vec![]),
        Gate::Tdg => ("tdg", vec![]),
        Gate::Rx(a) => ("rx", vec![*a]),
        Gate::Ry(a) => ("ry", vec![*a]),
        Gate::Rz(a) => ("rz", vec![*a]),
        Gate::U1(a) => ("u1", vec![*a]),
        Gate::U2(a, b) => ("u2", vec![*a, *b]),
        Gate::U3(a, b, c) => ("u3", vec![*a, *b, *c]),
        Gate::Cnot => ("cnot", vec![]),
        Gate::Cz => ("cz", vec![]),
        Gate::CPhase(a) => ("cphase", vec![*a]),
        Gate::Rzz(a) => ("rzz", vec![*a]),
        Gate::Swap => ("swap", vec![]),
        Gate::Measure => ("measure", vec![]),
        _ => return None,
    })
}

fn gate_from_tag(tag: &str, angles: &[Angle]) -> Option<Gate> {
    Some(match (tag, angles) {
        ("id", []) => Gate::Id,
        ("h", []) => Gate::H,
        ("x", []) => Gate::X,
        ("y", []) => Gate::Y,
        ("z", []) => Gate::Z,
        ("s", []) => Gate::S,
        ("sdg", []) => Gate::Sdg,
        ("t", []) => Gate::T,
        ("tdg", []) => Gate::Tdg,
        ("rx", [a]) => Gate::Rx(*a),
        ("ry", [a]) => Gate::Ry(*a),
        ("rz", [a]) => Gate::Rz(*a),
        ("u1", [a]) => Gate::U1(*a),
        ("u2", [a, b]) => Gate::U2(*a, *b),
        ("u3", [a, b, c]) => Gate::U3(*a, *b, *c),
        ("cnot", []) => Gate::Cnot,
        ("cz", []) => Gate::Cz,
        ("cphase", [a]) => Gate::CPhase(*a),
        ("rzz", [a]) => Gate::Rzz(*a),
        ("swap", []) => Gate::Swap,
        ("measure", []) => Gate::Measure,
        _ => return None,
    })
}

fn encode_circuit(out: &mut String, label: &str, circuit: &Circuit) -> Option<()> {
    let _ = writeln!(
        out,
        "circuit {label} {} {}",
        circuit.num_qubits(),
        circuit.instructions().len()
    );
    for instr in circuit.instructions() {
        let gate = instr.gate();
        let (tag, angles) = gate_tag(&gate)?;
        let _ = write!(out, "i {tag}");
        for q in instr.qubit_vec() {
            let _ = write!(out, " {q}");
        }
        for angle in &angles {
            out.push(' ');
            encode_angle(out, angle);
        }
        out.push('\n');
    }
    Some(())
}

fn encode_layout(out: &mut String, label: &str, layout: &Layout) {
    let _ = write!(out, "layout {label} {}", layout.num_physical());
    for &p in layout.as_mapping() {
        let _ = write!(out, " {p}");
    }
    out.push('\n');
}

fn encode_options(out: &mut String, options: &CompileOptions) {
    let mapping: u8 = match options.mapping {
        InitialMapping::Naive => 0,
        InitialMapping::GreedyV => 1,
        InitialMapping::Dense => 2,
        InitialMapping::Qaim => 3,
    };
    let compilation: u8 = match options.compilation {
        Compilation::RandomOrder => 0,
        Compilation::Ip => 1,
        Compilation::IncrementalHops => 2,
        Compilation::IncrementalReliability => 3,
    };
    let opt = |o: Option<u128>| o.map_or("-".to_owned(), |v| v.to_string());
    let Resilience {
        fallback,
        pass_budget,
        swap_budget,
        max_retries,
    } = options.resilience;
    let _ = writeln!(
        out,
        "options {mapping} {compilation} {} {} {} {} {max_retries}",
        opt(options.packing_limit.map(|v| v as u128)),
        u8::from(fallback),
        opt(pass_budget.map(|d| d.as_nanos())),
        opt(swap_budget.map(|v| v as u128)),
    );
}

/// Serializes the full `(key, artifact)` body. `None` iff a circuit
/// contains a gate outside the stable tag set.
fn encode_entry(key: &CacheKey, artifact: &CompiledArtifact) -> Option<String> {
    let mut out = String::new();
    let _ = writeln!(out, "topology_fp {:016x}", key.topology_fp);
    match key.calibration_epoch {
        Some(e) => {
            let _ = writeln!(out, "epoch {e}");
        }
        None => {
            let _ = writeln!(out, "epoch -");
        }
    }
    encode_options(&mut out, &key.options);
    let spec = &key.spec;
    let _ = writeln!(
        out,
        "spec {} {} {} {}",
        spec.num_qubits(),
        u8::from(spec.measure()),
        spec.levels().len(),
        spec.param_table().len()
    );
    for (_, name) in spec.param_table().iter() {
        let mut hexname = String::with_capacity(name.len() * 2);
        for b in name.bytes() {
            let _ = write!(hexname, "{b:02x}");
        }
        let _ = writeln!(out, "param {hexname}");
    }
    for (level, (ops, mixer)) in spec.levels().iter().enumerate() {
        let _ = write!(out, "level {} ", ops.len());
        encode_angle(&mut out, mixer);
        out.push('\n');
        for op in ops {
            let _ = write!(out, "op {} {} ", op.a, op.b);
            encode_angle(&mut out, &op.angle);
            out.push('\n');
        }
        let fields = spec.field_terms(level);
        let _ = writeln!(out, "fields {}", fields.len());
        for (q, angle) in fields {
            let _ = write!(out, "field {q} ");
            encode_angle(&mut out, angle);
            out.push('\n');
        }
    }
    let template = artifact.template();
    let _ = writeln!(out, "swap_count {}", template.swap_count());
    let _ = writeln!(out, "num_params {}", artifact.num_params());
    encode_layout(&mut out, "initial", template.initial_layout());
    encode_layout(&mut out, "final", template.final_layout());
    encode_circuit(&mut out, "physical", template.physical())?;
    encode_circuit(&mut out, "basis", template.basis_circuit())?;
    out.push_str("end\n");
    Some(out)
}

/// A line cursor over the body; every helper returns `None` on any
/// structural violation, which the caller counts as corruption.
struct Lines<'a> {
    iter: std::str::Lines<'a>,
}

impl<'a> Lines<'a> {
    fn expect(&mut self, keyword: &str) -> Option<SplitWhitespace<'a>> {
        let mut words = self.iter.next()?.split_whitespace();
        (words.next()? == keyword).then_some(words)
    }
}

fn parse_usize(words: &mut SplitWhitespace<'_>) -> Option<usize> {
    words.next()?.parse().ok()
}

fn parse_opt(words: &mut SplitWhitespace<'_>) -> Option<Option<u128>> {
    let word = words.next()?;
    if word == "-" {
        Some(None)
    } else {
        word.parse().ok().map(Some)
    }
}

fn parse_angle(words: &mut SplitWhitespace<'_>) -> Option<Angle> {
    decode_angle(words.next()?)
}

fn decode_options(words: &mut SplitWhitespace<'_>) -> Option<CompileOptions> {
    let mapping = match parse_usize(words)? {
        0 => InitialMapping::Naive,
        1 => InitialMapping::GreedyV,
        2 => InitialMapping::Dense,
        3 => InitialMapping::Qaim,
        _ => return None,
    };
    let compilation = match parse_usize(words)? {
        0 => Compilation::RandomOrder,
        1 => Compilation::Ip,
        2 => Compilation::IncrementalHops,
        3 => Compilation::IncrementalReliability,
        _ => return None,
    };
    let packing_limit = parse_opt(words)?.map(|v| v as usize);
    let fallback = match parse_usize(words)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let pass_budget = parse_opt(words)?.map(|n| Duration::from_nanos(n as u64));
    let swap_budget = parse_opt(words)?.map(|v| v as usize);
    let max_retries = u8::try_from(parse_usize(words)?).ok()?;
    let mut options = CompileOptions::new(mapping, compilation);
    options.packing_limit = packing_limit;
    options.resilience = Resilience {
        fallback,
        pass_budget,
        swap_budget,
        max_retries,
    };
    Some(options)
}

fn decode_circuit(lines: &mut Lines<'_>, label: &str, params: &ParamTable) -> Option<Circuit> {
    let mut words = lines.expect("circuit")?;
    (words.next()? == label).then_some(())?;
    let num_qubits = parse_usize(&mut words)?;
    let count = parse_usize(&mut words)?;
    let mut circuit = Circuit::new(num_qubits);
    circuit.set_param_table(params.clone());
    for _ in 0..count {
        let mut words = lines.expect("i")?;
        let tag = words.next()?;
        let arity_two = matches!(tag, "cnot" | "cz" | "cphase" | "rzz" | "swap");
        let q0 = parse_usize(&mut words)?;
        let q1 = arity_two.then(|| parse_usize(&mut words)).flatten();
        if arity_two && q1.is_none() {
            return None;
        }
        let mut angles = Vec::new();
        for word in words {
            angles.push(decode_angle(word)?);
        }
        let gate = gate_from_tag(tag, &angles)?;
        let instr = match q1 {
            Some(q1) => Instruction::two(gate, q0, q1),
            None => Instruction::one(gate, q0),
        };
        circuit.push(instr).ok()?;
    }
    Some(circuit)
}

fn decode_layout(lines: &mut Lines<'_>, label: &str) -> Option<Layout> {
    let mut words = lines.expect("layout")?;
    (words.next()? == label).then_some(())?;
    let num_physical = parse_usize(&mut words)?;
    let mapping: Vec<usize> = words.map(|w| w.parse().ok()).collect::<Option<_>>()?;
    if mapping.iter().any(|&p| p >= num_physical) {
        return None;
    }
    Some(Layout::from_mapping(mapping, num_physical))
}

/// Parses one verified body back into its key and artifact. `None` on
/// any structural violation.
fn decode_entry(text: &str) -> Option<(CacheKey, CompiledArtifact)> {
    let body = verify_header(text, MAGIC)?;
    let mut lines = Lines { iter: body.lines() };

    let mut words = lines.expect("topology_fp")?;
    let topology_fp = u64::from_str_radix(words.next()?, 16).ok()?;
    let mut words = lines.expect("epoch")?;
    let epoch_word = words.next()?;
    let calibration_epoch = if epoch_word == "-" {
        None
    } else {
        Some(epoch_word.parse::<u64>().ok()?)
    };
    let options = decode_options(&mut lines.expect("options")?)?;

    let mut words = lines.expect("spec")?;
    let num_qubits = parse_usize(&mut words)?;
    let measure = match parse_usize(&mut words)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let num_levels = parse_usize(&mut words)?;
    let num_table_params = parse_usize(&mut words)?;
    if num_levels == 0 || num_qubits == 0 {
        return None;
    }
    let mut table = ParamTable::new();
    for _ in 0..num_table_params {
        let mut words = lines.expect("param")?;
        let hexname = words.next()?;
        if hexname.len() % 2 != 0 {
            return None;
        }
        let bytes: Vec<u8> = (0..hexname.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hexname[i..i + 2], 16).ok())
            .collect::<Option<_>>()?;
        table.declare(String::from_utf8(bytes).ok()?);
    }
    let mut levels: Vec<(Vec<CphaseOp>, Angle)> = Vec::with_capacity(num_levels);
    let mut fields: Vec<Vec<(usize, Angle)>> = Vec::with_capacity(num_levels);
    for _ in 0..num_levels {
        let mut words = lines.expect("level")?;
        let ops_count = parse_usize(&mut words)?;
        let mixer = parse_angle(&mut words)?;
        let mut ops = Vec::with_capacity(ops_count);
        for _ in 0..ops_count {
            let mut words = lines.expect("op")?;
            let a = parse_usize(&mut words)?;
            let b = parse_usize(&mut words)?;
            let angle = parse_angle(&mut words)?;
            if a == b || a >= num_qubits || b >= num_qubits {
                return None;
            }
            ops.push(CphaseOp::new(a, b, angle));
        }
        levels.push((ops, mixer));
        let mut words = lines.expect("fields")?;
        let field_count = parse_usize(&mut words)?;
        let mut level_fields = Vec::with_capacity(field_count);
        for _ in 0..field_count {
            let mut words = lines.expect("field")?;
            let q = parse_usize(&mut words)?;
            let angle = parse_angle(&mut words)?;
            if q >= num_qubits {
                return None;
            }
            level_fields.push((q, angle));
        }
        fields.push(level_fields);
    }
    let spec = QaoaSpec::new(num_qubits, levels, measure)
        .with_fields(fields)
        .with_params(table.clone());

    let swap_count = parse_usize(&mut lines.expect("swap_count")?)?;
    let num_params = parse_usize(&mut lines.expect("num_params")?)?;
    if num_params != table.len() {
        return None;
    }
    let initial_layout = decode_layout(&mut lines, "initial")?;
    let final_layout = decode_layout(&mut lines, "final")?;
    let physical = decode_circuit(&mut lines, "physical", &table)?;
    let basis = decode_circuit(&mut lines, "basis", &table)?;
    lines.expect("end")?;

    let template = CompiledCircuit::from_recovered_parts(
        physical,
        basis,
        initial_layout,
        final_layout,
        swap_count,
    );
    let key = CacheKey {
        spec,
        options,
        topology_fp,
        calibration_epoch,
    };
    Some((
        key,
        CompiledArtifact::from_recovered_template(template, num_params),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qserve-spill-{tag}-{}", std::process::id()))
    }

    fn parametric_spec() -> QaoaSpec {
        let mut table = ParamTable::new();
        let gamma = table.declare("gamma 0"); // space exercises hex names
        let beta = table.declare("beta0");
        let ops = vec![
            CphaseOp::new(0, 1, Angle::sym(gamma)),
            CphaseOp::new(1, 2, Angle::sym(gamma).scaled(2.0)),
            CphaseOp::new(2, 3, 0.7),
        ];
        QaoaSpec::new(4, vec![(ops, Angle::sym(beta))], true)
            .with_fields(vec![vec![(0, Angle::Const(0.11))]])
            .with_params(table)
    }

    fn compile_entry(options: CompileOptions, epoch: u64) -> (u64, CacheKey, CompiledArtifact) {
        let topology = qhw::Topology::grid(2, 3);
        let calibration = qhw::Calibration::uniform(&topology, 0.02, 0.001, 0.02);
        let context = qhw::HardwareContext::with_calibration(topology.clone(), calibration);
        let spec = parametric_spec();
        let artifact = qcompile::try_compile_artifact_with_context(
            &spec,
            &context,
            &options,
            &mut StdRng::seed_from_u64(5),
        )
        .expect("grid compiles");
        let key = CacheKey::new(spec, options, topology.fingerprint(), epoch);
        (key.fingerprint(), key, artifact)
    }

    #[test]
    fn save_and_recover_round_trips_key_and_artifact() {
        let dir = tmp("roundtrip");
        let mut store = SpillStore::new(dir.clone()).unwrap();
        let (fp, key, artifact) = compile_entry(CompileOptions::vic().with_fallback(), 3);
        store.save(fp, &key, &artifact).unwrap();

        let entries = store.recover(key.topology_fp, Some(3));
        assert_eq!((store.corrupt, store.stale), (0, 0));
        assert_eq!((entries.len(), store.recovered), (1, 1));
        let (got_fp, got_key, got) = &entries[0];
        assert_eq!(*got_fp, fp);
        assert_eq!(got_key, &key);
        assert_eq!(got_key.fingerprint(), fp, "recomputed fingerprint matches");
        let t = got.template();
        assert_eq!(t.swap_count(), artifact.template().swap_count());
        assert_eq!(t.physical(), artifact.template().physical());
        assert_eq!(t.basis_circuit(), artifact.template().basis_circuit());
        assert_eq!(
            t.initial_layout().as_mapping(),
            artifact.template().initial_layout().as_mapping()
        );
        assert_eq!(
            t.final_layout().as_mapping(),
            artifact.template().final_layout().as_mapping()
        );
        assert_eq!(got.num_params(), 2);
        assert!(got.is_parametric());
        // A recovered artifact binds exactly like the original.
        let values = qcircuit::ParamValues::new(vec![0.3, 0.9]);
        let (a, b) = (got.bind(&values).unwrap(), artifact.bind(&values).unwrap());
        assert_eq!(a.physical(), b.physical());
        assert_eq!(a.basis_circuit(), b.basis_circuit());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_epoch_and_foreign_topology_entries_are_dropped() {
        let dir = tmp("stale");
        let mut store = SpillStore::new(dir.clone()).unwrap();
        let (fp, key, artifact) = compile_entry(CompileOptions::vic().with_fallback(), 3);
        store.save(fp, &key, &artifact).unwrap();
        // Epoch moved on: the VIC entry is stale and also deleted.
        let entries = store.recover(key.topology_fp, Some(4));
        assert_eq!(entries.len(), 0);
        assert_eq!(store.stale, 1);
        let entries = store.recover(key.topology_fp, Some(3));
        assert_eq!(entries.len(), 0, "stale recovery deleted the file for good");

        // Epoch-free (IC) entries survive any epoch but not a topology swap.
        let (fp, key, artifact) = compile_entry(CompileOptions::ic(), 3);
        store.save(fp, &key, &artifact).unwrap();
        assert_eq!(store.recover(key.topology_fp, Some(99)).len(), 1);
        let entries = store.recover(key.topology_fp ^ 1, Some(3));
        assert_eq!((entries.len(), store.stale), (0, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_and_bitflips_are_detected_not_served() {
        use qhw::fault::{FaultInjector, SpillCorruption};
        let dir = tmp("corrupt");
        let mut store = SpillStore::new(dir.clone()).unwrap();
        let (fp, key, artifact) = compile_entry(CompileOptions::ic(), 0);
        let path = dir.join(format!("{fp:016x}.qart"));
        let mut injector = FaultInjector::new(17);
        for kind in [SpillCorruption::Truncate, SpillCorruption::BitFlip] {
            store.save(fp, &key, &artifact).unwrap();
            injector.corrupt_spill_file(&path, kind).unwrap();
            let entries = store.recover(key.topology_fp, Some(0));
            assert_eq!(entries.len(), 0, "{kind:?} must not serve");
            assert_eq!(store.corrupt, 1, "{kind:?} counted as corrupt");
        }
        // An empty (fully torn) file is corrupt, not a panic.
        std::fs::write(&path, "").unwrap();
        store.recover(key.topology_fp, Some(0));
        assert_eq!(store.corrupt, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_sidecar_round_trips_and_rejects_corruption() {
        let dir = tmp("meta");
        let store = SpillStore::new(dir.clone()).unwrap();
        assert_eq!(store.read_meta(), None);
        store.write_meta(7, Some(0xabcd)).unwrap();
        assert_eq!(store.read_meta(), Some((7, Some(0xabcd))));
        store.write_meta(9, None).unwrap();
        assert_eq!(store.read_meta(), Some((9, None)));
        // Flip a byte: the checksum refuses it.
        let path = dir.join("epoch.meta");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(store.read_meta(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
