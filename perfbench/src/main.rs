//! The hcc-mf benchmark binary. `run.py` drives it; it has two commands:
//!
//! ```text
//! perfbench gen --workload W --seed N --out DIR
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --input DIR --out DIR
//! ```
//!
//! `gen` writes the workload's inputs for `seed` to `DIR`. `run` reads
//! them and measures: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` every layer from the outside (see `probes`). The last line
//! `run` prints is the one-line JSON result; `DIR/result.json` holds the
//! full record with sample counts, phases and the host fingerprint.

mod gen;
mod outcome;
mod probes;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use outcome::{Host, Outcome};
use spec::Workload;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench gen --workload W --seed N --out DIR\n       \
                     perfbench run --workload W --seed N --seconds S --trace 0|1 \
                     --input DIR --out DIR";

/// Parsed `--flag value` pairs after the command.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(rest: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key)?;
        v.parse().map_err(|_| format!("--{key}: bad value {v:?}"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key).map(PathBuf::from)
    }
}

/// Median time of a fixed integer + float loop, ms: a host-speed stamp.
fn calibrate() -> f64 {
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        let (mut x, mut f) = (0x9e37_79b9_7f4a_7c15u64, 0f64);
        for _ in 0..black_box(5_000_000u64) {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            f += (x >> 40) as f64 * 1e-9;
        }
        black_box((x, f));
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&times).map_or(f64::NAN, |m| m.value)
}

/// `(steal, total)` CPU ticks of the whole host from `/proc/stat`: time the
/// hypervisor ran something else while this machine's CPUs wanted to run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let traced = match args.get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let input = args.path("input")?;
    let out_dir = args.path("out")?;
    let scratch = out_dir.join("scratch");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let run_id = format!(
        "{}-{seed}-{}-{}",
        workload.name(),
        if traced { "traced" } else { "plain" },
        std::process::id()
    );

    let mut out = Outcome::default();
    let ticks0 = cpu_ticks();
    let calib_ms = calibrate();
    let late_p99_us = if traced {
        probes::run(
            workload, seed, &input, &scratch, &out_dir, &run_id, &mut out,
        )?
    } else if workload.trains() {
        train::run(workload, seed, seconds, &input, &scratch, &mut out)?;
        None
    } else {
        serve::run(seed, seconds, &input, &scratch, &mut out)?
    };
    if traced {
        out.value("host.calib_ms", "ms", calib_ms, 5);
    } else {
        match peak_rss_mb() {
            Some(mb) => out.value("peak_rss_mb", "MiB", mb, 1),
            None => out.problem("peak_rss_mb: /proc/self/status has no VmHWM"),
        }
    }
    let steal_frac = match (ticks0, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        backend: hcc_sgd::simd::active_backend().name(),
        calib_ms,
        late_p99_us,
        steal_frac,
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let record = out.record_json(workload.name(), seed, traced, &host);
    let record_path = out_dir.join("result.json");
    std::fs::write(&record_path, record).map_err(|e| format!("{}: {e}", record_path.display()))?;
    print!("{}", out.human(&host));
    println!("{}", out.result_line());
    Ok(())
}

fn generate(args: &Args) -> Result<(), String> {
    let dir: PathBuf = args.path("out")?;
    gen::generate(args.workload()?, args.num("seed")?, Path::new(&dir))
        .map_err(|e| format!("{}: {e}", dir.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("gen") => Args::parse(&argv[1..]).and_then(|a| generate(&a)),
        Some("run") => Args::parse(&argv[1..]).and_then(|a| run(&a)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
