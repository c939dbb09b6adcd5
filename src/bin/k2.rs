//! `k2` — command-line convoy mining.
//!
//! ```sh
//! k2 generate trucks --out trucks.bin --scale 0.5 --seed 7
//! k2 stats trucks.bin
//! k2 mine trucks.bin --m 3 --k 600 --eps 0.00006 --engine lsmt
//! k2 mine trucks.bin --algo vcoda-star --m 3 --k 600 --eps 0.00006 --engine rdbms
//! k2 convert trucks.bin trucks.csv
//! ```
//!
//! `k2 mine` runs every `--algo` as one engine over whichever `--engine`
//! stores the data, and prints its points processed beside its pruning.
//!
//! Movement files are the 24-byte binary record format of
//! `k2_model::codec` (`.csv` extension switches to CSV).

use k2hop::baselines::{cuts::CutsParams, Algorithm, Baseline};
use k2hop::core::K2Config;
use k2hop::model::{codec, Dataset};
use k2hop::patterns::FlockMiner;
use k2hop::server::{K2Service, Server};
use k2hop::storage::{FlatFileStore, LsmConfig, LsmStore, RelationalStore};
use k2hop::MiningSession;
use std::collections::HashMap;
use std::error::Error;
use std::fs::File;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops early (`k2 stats f | head -1`) is not a failure.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  k2 generate <trucks|tdrive|brinkhoff|inject> --out <file> [--scale F] [--seed N]
  k2 stats <file>
  k2 mine <file> --m N --k N --eps F [--algo A] [--engine E] [--threads N]
          [--pattern P] [--quiet]
  k2 interpolate <in> <out> [--max-gap N]
  k2 convert <in> <out>
  k2 serve [file] --addr HOST:PORT [--dir D] [--workers N]

algorithms (--algo): k2hop (default), vcoda, vcoda-star, cmc, pccd, cuts,
                     spare, dcm
engines    (--engine): memory (default), flat, rdbms, lsmt; every --algo
                     reads the engine given
patterns   (--pattern): convoy (default), flock (--algo k2hop only)
files:     *.csv is CSV (oid,x,y,t); anything else is the binary format
serve:     optional [file] is bulk-loaded first; --dir persists the store
           (default: a temp dir); clients speak the k2-server protocol";

/// A command's failure: a usage or input message, or an `io::Error` from
/// writing to stdout.
type CmdResult = Result<(), Box<dyn Error>>;

fn run(args: &[String]) -> CmdResult {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing command")?;
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "generate" => generate(&rest),
        "stats" => stats(&rest),
        "mine" => mine(&rest),
        "interpolate" => interpolate_cmd(&rest),
        "convert" => convert(&rest),
        "serve" => serve(&rest),
        "--help" | "-h" | "help" => Ok(writeln!(io::stdout().lock(), "{USAGE}")?),
        other => Err(format!("unknown command '{other}'").into()),
    }
}

/// Splits positional args from `--flag value` pairs.
fn parse_flags<'a>(
    args: &[&'a String],
) -> Result<(Vec<&'a str>, HashMap<&'a str, &'a str>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            if name == "quiet" {
                flags.insert(name, "true");
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name, value.as_str());
            i += 2;
        } else {
            positional.push(a);
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag_parse<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --{name}: {v}")),
        None => default.ok_or_else(|| format!("missing required flag --{name}")),
    }
}

fn load(path: &str) -> Result<Dataset, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".csv") {
        codec::read_csv(file).map_err(|e| format!("{path}: {e}"))
    } else {
        codec::read_binary(file).map_err(|e| format!("{path}: {e}"))
    }
}

fn save(dataset: &Dataset, path: &str) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".csv") {
        codec::write_csv(dataset, file).map_err(|e| format!("{path}: {e}"))
    } else {
        codec::write_binary(dataset, file).map_err(|e| format!("{path}: {e}"))
    }
}

fn generate(args: &[&String]) -> CmdResult {
    let (pos, flags) = parse_flags(args)?;
    let kind = *pos.first().ok_or("generate: missing dataset kind")?;
    let out: String = flag_parse(&flags, "out", None)?;
    let scale: f64 = flag_parse(&flags, "scale", Some(1.0))?;
    let seed: u64 = flag_parse(&flags, "seed", Some(0))?;
    let dataset = match kind {
        "trucks" => k2hop::datagen::trucks::TrucksConfig::scaled(scale)
            .seed(seed)
            .generate(),
        "tdrive" => k2hop::datagen::tdrive::TDriveConfig::scaled(scale)
            .seed(seed)
            .generate(),
        "brinkhoff" => k2hop::datagen::brinkhoff::BrinkhoffConfig::scaled(scale)
            .seed(seed)
            .generate(),
        "inject" => {
            let objects: u32 = flag_parse(&flags, "objects", Some(200))?;
            let timestamps: u32 = flag_parse(&flags, "timestamps", Some(200))?;
            let convoys: u32 = flag_parse(&flags, "convoys", Some(3))?;
            k2hop::datagen::ConvoyInjector::new(objects, timestamps)
                .convoys(convoys, 4, timestamps / 3)
                .seed(seed)
                .generate()
        }
        other => return Err(format!("unknown dataset kind '{other}'").into()),
    };
    save(&dataset, &out)?;
    let s = dataset.stats();
    writeln!(
        io::stdout().lock(),
        "wrote {out}: {} points, {} objects, {} timestamps",
        s.num_points,
        s.num_objects,
        s.num_timestamps
    )?;
    Ok(())
}

fn stats(args: &[&String]) -> CmdResult {
    let (pos, _) = parse_flags(args)?;
    let path = *pos.first().ok_or("stats: missing file")?;
    let dataset = load(path)?;
    let s = dataset.stats();
    let mut out = io::stdout().lock();
    writeln!(out, "file            : {path}")?;
    writeln!(out, "points          : {}", s.num_points)?;
    writeln!(out, "objects         : {}", s.num_objects)?;
    writeln!(out, "timestamps      : {}", s.num_timestamps)?;
    writeln!(out, "time range      : {}", dataset.span())?;
    writeln!(out, "max snapshot    : {}", s.max_snapshot_size)?;
    writeln!(out, "avg snapshot    : {:.1}", s.avg_snapshot_size)?;
    Ok(())
}

fn mine(args: &[&String]) -> CmdResult {
    let (pos, flags) = parse_flags(args)?;
    let path = *pos.first().ok_or("mine: missing file")?;
    let m: usize = flag_parse(&flags, "m", None)?;
    let k: u32 = flag_parse(&flags, "k", None)?;
    let eps: f64 = flag_parse(&flags, "eps", None)?;
    let algo = flags.get("algo").copied().unwrap_or("k2hop");
    let engine = flags.get("engine").copied().unwrap_or("memory");
    // `--threads` defaults to 4 for the parallel baselines (spare, dcm);
    // the default k2hop engine auto-sizes to the machine unless the flag
    // is actually passed.
    let threads_flag: Option<usize> = match flags.get("threads") {
        Some(_) => Some(flag_parse(&flags, "threads", None)?),
        None => None,
    };
    let threads = threads_flag.unwrap_or(4);
    let quiet = flags.contains_key("quiet");

    // A pattern is an engine: flocks have one, the k/2-hop flock miner.
    let flock = match flags.get("pattern").copied().unwrap_or("convoy") {
        "convoy" => false,
        "flock" => true,
        other => return Err(format!("unknown pattern '{other}'").into()),
    };
    if flock && algo != "k2hop" {
        return Err(
            format!("--pattern flock is valid only with --algo k2hop, not --algo {algo}").into(),
        );
    }

    // Every algorithm is one engine, run by one MiningSession over
    // whichever storage engine was requested.
    let config = K2Config::new(m, k, eps).map_err(|e| e.to_string())?;
    let baseline = |algorithm| Baseline::new(config, algorithm);
    let session = MiningSession::new(config);
    let session = match algo {
        "k2hop" if flock => session.engine(match threads_flag {
            Some(n) => FlockMiner::with_threads(config, n),
            None => FlockMiner::new(config),
        }),
        "k2hop" => match threads_flag {
            Some(n) => session.threads(n),
            None => session,
        },
        "vcoda" => session.engine(baseline(Algorithm::VCoda)),
        "vcoda-star" => session.engine(baseline(Algorithm::VCodaStar)),
        "cmc" => session.engine(baseline(Algorithm::Cmc)),
        "pccd" => session.engine(baseline(Algorithm::Pccd)),
        "cuts" => session.engine(baseline(Algorithm::Cuts(CutsParams::default()))),
        "spare" => session.engine(baseline(Algorithm::Spare(threads))),
        "dcm" => session.engine(baseline(Algorithm::Dcm(threads))),
        other => return Err(format!("unknown algorithm '{other}'").into()),
    };

    let dataset = load(path)?;
    let start = Instant::now();
    let tmp = std::env::temp_dir().join(format!("k2cli-{}", std::process::id()));
    let outcome = match engine {
        "memory" => session.mine(&dataset),
        "flat" => {
            std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
            let store =
                FlatFileStore::create(tmp.join("data.bin"), &dataset).map_err(|e| e.to_string())?;
            session.mine(&store)
        }
        "rdbms" => {
            std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
            let store = RelationalStore::create(tmp.join("data.k2bt"), &dataset)
                .map_err(|e| e.to_string())?;
            session.mine(&store)
        }
        "lsmt" => {
            let store =
                LsmStore::bulk_load(tmp.join("lsm"), &dataset).map_err(|e| e.to_string())?;
            session.mine(&store)
        }
        other => return Err(format!("unknown engine '{other}'").into()),
    }
    .map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&tmp);
    let elapsed = start.elapsed();
    let mut out = io::stdout().lock();
    let (stats, convoys) = (&outcome.stats, &outcome.convoys);
    writeln!(
        out,
        "{} convoys in {elapsed:.2?} ({algo}, engine {}, pruned {:.2}% of {} points, {} points processed)",
        convoys.len(),
        stats.engine,
        stats.pruning.pruning_ratio() * 100.0,
        stats.pruning.total_points,
        stats.pruning.points_processed()
    )?;
    if !quiet {
        for c in convoys {
            writeln!(
                out,
                "  {:?} over {} (len {})",
                c.objects,
                c.lifespan,
                c.len()
            )?;
        }
    }
    Ok(())
}

/// `k2 serve`: bulk-load an optional movement file into an LSM store and
/// serve mine/ingest/stats requests over TCP until killed. Every mine
/// request pins its own MVCC snapshot, so clients mine concurrently with
/// each other and with live `Ingest` traffic.
fn serve(args: &[&String]) -> CmdResult {
    let (pos, flags) = parse_flags(args)?;
    let addr = flags.get("addr").copied().unwrap_or("127.0.0.1:7878");
    let workers: usize = flag_parse(&flags, "workers", Some(4))?;
    let owned_tmp;
    let dir = match flags.get("dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => {
            owned_tmp = std::env::temp_dir().join(format!("k2serve-{}", std::process::id()));
            owned_tmp
        }
    };
    let store = match pos.first() {
        Some(path) => {
            let dataset = load(path)?;
            writeln!(
                io::stdout().lock(),
                "loaded {} points over {} timestamps from {path}",
                dataset.num_points(),
                dataset.span().len()
            )?;
            LsmStore::bulk_load_with(&dir, &dataset, LsmConfig::default())
        }
        None if dir.join("MANIFEST").exists() => LsmStore::open(&dir),
        None => LsmStore::create_with(&dir, LsmConfig::default()),
    }
    .map_err(|e| e.to_string())?;
    let service = Arc::new(K2Service::new(store));
    let server = Server::bind(addr, service, workers).map_err(|e| e.to_string())?;
    writeln!(
        io::stdout().lock(),
        "serving on {} with {workers} workers (store: {})",
        server.addr(),
        dir.display()
    )?;
    // Serve until killed; the accept thread does the work.
    loop {
        std::thread::park();
    }
}

fn interpolate_cmd(args: &[&String]) -> CmdResult {
    let (pos, flags) = parse_flags(args)?;
    let [input, output] = pos.as_slice() else {
        return Err("interpolate: need <in> <out>".into());
    };
    let max_gap: u32 = flag_parse(&flags, "max-gap", Some(16))?;
    let dataset = load(input)?;
    let before = dataset.num_points();
    let (dense, inserted) = k2hop::model::interpolate::interpolate(&dataset, max_gap);
    save(&dense, output)?;
    writeln!(
        io::stdout().lock(),
        "interpolated {input} -> {output}: {before} + {inserted} = {} points (max gap {max_gap})",
        dense.num_points()
    )?;
    Ok(())
}

fn convert(args: &[&String]) -> CmdResult {
    let (pos, _) = parse_flags(args)?;
    let [input, output] = pos.as_slice() else {
        return Err("convert: need <in> <out>".into());
    };
    let dataset = load(input)?;
    save(&dataset, output)?;
    writeln!(
        io::stdout().lock(),
        "converted {input} -> {output} ({} points)",
        dataset.num_points()
    )?;
    Ok(())
}
