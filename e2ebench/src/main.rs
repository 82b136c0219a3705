//! End-to-end benchmark of the shipped `s3pg-convert` and `s3pg-serve`
//! binaries, each run as a child process, with per-layer attribution.
//!
//! ```text
//! bash e2ebench/run.sh --workload read|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it records the run's context (source
//! revision, parallelism, scale, seed, WAL settings and filesystem,
//! sample counts). See `e2ebench/README.md`.

mod layers;
mod oracle;
mod schedule;
mod serve;
mod spans;
mod stats;
mod sut;
mod wire;
mod workloads;

use s3pg_server::json::Json;
use std::path::{Path, PathBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds needs an integer")?)
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "read" | "mixed") {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace,
    })
}

/// FNV-1a over every source file under `crates/`, so a result names the
/// exact code it measured even in a checkout without git metadata.
fn source_revision() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-{h:016x} ({} files)", files.len())
}

/// Filesystem type holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn run(args: &Args, work: &Path) -> Result<workloads::Report, String> {
    let started = std::time::Instant::now();
    let inputs = oracle::Inputs::build(args.seed, work)?;
    // The same fixed work every run: how fast the host ran this run.
    let build_s = started.elapsed().as_secs_f64();
    eprintln!("inputs and oracle ready after {build_s:.1} s");
    for q in inputs.scans.iter().chain(&inputs.lookup_templates) {
        eprintln!("query: {}\n    F_qt: {}", q.sparql, q.cypher);
    }
    let mut report = match args.workload.as_str() {
        "read" => workloads::read(&inputs, work, args.seconds, args.trace)?,
        _ => workloads::mixed(&inputs, work, args.seconds, args.trace)?,
    };
    eprintln!("run finished after {:.1?}", started.elapsed());
    // The WAL settings the mixed workload's server runs with: its defaults.
    let serve = s3pg_server::cli::parse_args(["--data".to_string(), "G.nt".to_string()])?;
    let context = [
        ("workload", args.workload.clone()),
        ("source", source_revision()),
        ("nproc", oracle::nproc().to_string()),
        ("scale", oracle::SCALE.to_string()),
        ("seed", args.seed.to_string()),
        ("triples", inputs.dataset.graph.len().to_string()),
        ("inputs_build_s", format!("{build_s:.3}")),
        ("nt_bytes", inputs.nt_bytes.to_string()),
        ("fsync_ms", serve.fsync_ms.to_string()),
        ("fsync_batch", serve.fsync_batch.to_string()),
        ("checkpoint_every", serve.checkpoint_every.to_string()),
        ("wal_filesystem", filesystem_of(work)),
        ("batch_triples", oracle::BATCH_TRIPLES.to_string()),
    ];
    for (k, v) in context.into_iter().rev() {
        report.context.insert(0, (k.to_string(), v));
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: e2ebench --workload read|mixed --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".e2ebench_work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".e2ebench_work");
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let context = Json::Obj(
        report
            .context
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    );
    println!("{}", Json::obj([("context", context)]).to_line());
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        report.layers.all()
    } else {
        vec![
            ("setup_s", report.setup_s, "s"),
            ("peak_rss_mb", report.peak_rss_mb, "MB"),
            ("p50_ms", report.p50_ms, "ms"),
        ]
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!(r#""{n}":{{"value":{},"unit":"{u}"}}"#, json_number(*v)))
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
