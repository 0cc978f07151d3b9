//! `perfbench`: the repository's RPC benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one closed loop: one generator thread issues the next
//! call (or batch) only when the previous one returned. Inputs come from
//! `--seed` and are generated before timing starts; every reply is
//! checked. With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics from a separate traced
//! phase and writes its spans to `out/<workload>.spans.jsonl` in this
//! package's directory. The last line of standard output is one JSON
//! object; the lines before it, starting with `#`, are for people.
//! See README.md for the workloads and the metric map.

mod alloc;
mod gen;
mod hist;
mod span;
mod workloads;

use gen::Inputs;
use hist::Histogram;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Counters, SetupTimes, Workload, World};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Extra set-ups timed after each window; `setup_s` is the median of all
/// set-ups in a run. Spreading them over the run samples the host's load
/// across it, rather than at start-up alone.
const SETUPS_PER_WINDOW: usize = 3;
/// Untimed calls after set-up, so caches fill and lazy set-up finishes.
const WARMUP: Duration = Duration::from_millis(500);
/// A run is measured in windows of this length, two per second of
/// `--seconds`. Throughput and p50 are medians over windows; p99 is the
/// 10th percentile of the windows' p99s (see README.md).
const WINDOW: Duration = Duration::from_millis(500);
/// The percentile of per-window p99s that `p99_us` reports.
const P99_WINDOW_PERCENTILE: f64 = 0.10;
/// Spans the traced phase may record (8 words each).
const SPAN_CAPACITY: usize = 1 << 18;
/// More spans than one unit records (a batch records 3 + 16).
const UNIT_SPANS: usize = 64;

const USAGE: &str = "usage: perfbench --workload <small_inline|bulk_ipc|net_batched|amo_writes> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag}")),
        };
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let need = |v: Option<String>, flag: &str| v.ok_or(format!("missing {flag}"));
    let name = need(workload, "--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = need(seed, "--seed")?;
    let seed = seed.parse::<u64>().map_err(|_| format!("--seed {seed} is not a u64"))?;
    let secs = need(seconds, "--seconds")?;
    let seconds = match secs.parse::<u32>() {
        Ok(s @ 1..=600) => s,
        _ => return Err(format!("--seconds {secs} is not a whole number in 1..=600")),
    };
    let trace = match need(trace, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t} is not 0 or 1")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Turns glibc's heap trimming off for the whole run.
///
/// By default glibc returns the top of the heap to the OS once more than
/// 128 KiB is free there, and moves that threshold up the first time a
/// large mmapped block is freed. `bulk_ipc` frees 4–64 KiB buffers every
/// call, so without a fixed setting it measured whichever regime earlier
/// allocations happened to leave: 131k calls/s (quartile spread 0.05
/// over seeds) in one, 81k (spread 0.22) in the other, from a change to
/// set-up alone. Fixing the threshold makes every workload measure the
/// program, not the allocator's history.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_heap_trimming() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    // SAFETY: `mallopt` only sets a glibc malloc parameter; it is called
    // before this process starts any other thread.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_heap_trimming() {}

fn main() -> ExitCode {
    pin_heap_trimming();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Calls attempted and failed over the whole run, warm-up included.
#[derive(Default)]
struct Tally {
    calls: u64,
    failed: u64,
}

/// One measured window.
struct Window {
    calls: u64,
    bytes: u64,
    secs: f64,
    hist: Histogram,
}

impl Window {
    fn calls_per_s(&self) -> f64 {
        self.calls as f64 / self.secs
    }
}

/// Runs closed-loop units for `dur`, or until `stop` says so.
fn run_for(
    world: &mut dyn World,
    inputs: &Inputs,
    unit_calls: usize,
    cursor: &mut usize,
    dur: Duration,
    tally: &mut Tally,
    stop: impl Fn() -> bool,
) -> Window {
    let mut w = Window { calls: 0, bytes: 0, secs: 0.0, hist: Histogram::default() };
    let t0 = Instant::now();
    let deadline = t0 + dur;
    loop {
        let ops = &inputs.ops[*cursor..*cursor + unit_calls];
        *cursor = (*cursor + unit_calls) % inputs.ops.len();
        let u = world.unit(ops);
        tally.calls += u.calls;
        tally.failed += u.failed;
        w.calls += u.calls - u.failed;
        w.bytes += u.bytes;
        if u.failed == 0 {
            w.hist.record(u.latency_ns, u.calls);
        }
        if u.end >= deadline || stop() {
            w.secs = (u.end - t0).as_secs_f64();
            return w;
        }
    }
}

/// The `p`-quantile (0..=1) of `v`, interpolating linearly between
/// neighbours; 0 when `v` is empty.
fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else { return 0.0 };
    let k = p.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (k.floor() as usize, k.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (k - lo as f64)
}

fn median(v: Vec<f64>) -> f64 {
    percentile(v, 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process in 10^6 bytes (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.calls,
        tally.failed,
        body.join(",")
    )
}

/// Measures `count` windows, timing `SETUPS_PER_WINDOW` set-ups (of
/// worlds built and dropped at once) after each.
fn measure(
    wl: Workload,
    world: &mut dyn World,
    inputs: &Inputs,
    cursor: &mut usize,
    count: usize,
    tally: &mut Tally,
    setups: &mut Vec<SetupTimes>,
) -> Result<Vec<Window>, String> {
    let mut windows = Vec::with_capacity(count);
    for _ in 0..count {
        windows.push(run_for(world, inputs, wl.unit_calls(), cursor, WINDOW, tally, || false));
        for _ in 0..SETUPS_PER_WINDOW {
            setups.push(workloads::build(wl, inputs, false)?.1);
        }
    }
    Ok(windows)
}

fn run(args: &Args) -> Result<bool, String> {
    let wl = args.workload;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} cores={} commit={}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores,
        commit()
    );
    let inputs = Inputs::generate(args.seed, wl.sizes(), wl.writes_in_8());
    let n = wl.unit_calls();
    let mut cursor = 0;
    let mut tally = Tally::default();
    let windows = args.seconds as usize * 2;

    if args.trace {
        span::install(SPAN_CAPACITY);
        span::set_on(true);
    }
    let (mut world, first) = workloads::build(wl, &inputs, false)?;
    let after_setup = world.counters();
    let mut setups = vec![first];
    span::set_on(false);
    run_for(world.as_mut(), &inputs, n, &mut cursor, WARMUP, &mut tally, || false);

    if !args.trace {
        let windows =
            measure(wl, world.as_mut(), &inputs, &mut cursor, windows, &mut tally, &mut setups)?;
        let check = world.final_check();
        drop(world);
        let samples: u64 = windows.iter().map(|w| w.hist.count()).sum();
        let per = |f: &dyn Fn(&Window) -> f64| median(windows.iter().map(f).collect());
        let p99s = windows.iter().map(|w| w.hist.quantile(0.99) / 1e3).collect();
        let metrics: Vec<Metric> = vec![
            ("calls_per_s", per(&|w| w.calls_per_s()), "1/s"),
            ("goodput_mb_s", per(&|w| w.bytes as f64 / w.secs / 1e6), "MB/s"),
            ("p50_us", per(&|w| w.hist.quantile(0.50) / 1e3), "us"),
            ("p99_us", percentile(p99s, P99_WINDOW_PERCENTILE), "us"),
            ("setup_s", median(setups.iter().map(SetupTimes::total).collect()), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
        return Ok(report(&tally, check, &metrics, &[("latency samples", samples as f64)]));
    }

    // Traced run. First an untraced phase on the plain world, the
    // baseline of `trace.overhead`; then a world with the pass-through
    // transport, traced until the span buffer or half the run is used.
    let half = (windows / 2).max(1);
    let untraced: Vec<f64> =
        measure(wl, world.as_mut(), &inputs, &mut cursor, half, &mut tally, &mut setups)?
            .iter()
            .map(Window::calls_per_s)
            .collect();
    let mut checks = vec![world.final_check()];
    drop(world);
    let (mut world, _) = workloads::build(wl, &inputs, true)?;
    run_for(world.as_mut(), &inputs, n, &mut cursor, WARMUP / 2, &mut tally, || false);

    let c0 = world.counters();
    let a0 = alloc::total();
    let phase_start = span::now_ns();
    alloc::set_counting(true);
    span::set_on(true);
    let traced =
        run_for(world.as_mut(), &inputs, n, &mut cursor, WINDOW * half as u32, &mut tally, || {
            span::room() < UNIT_SPANS
        });
    span::set_on(false);
    alloc::set_counting(false);
    let allocs = alloc::total() - a0;
    let c1 = world.counters();
    checks.push(world.final_check());
    drop(world);
    let check = checks.into_iter().collect::<Result<Vec<()>, String>>().map(|_| ());

    let spans = span::collect();
    let layers = Layers::from_spans(&spans, phase_start);
    let calls = traced.calls as f64;
    let batches = calls / n as f64;
    let d = |f: fn(&Counters) -> u64| (f(&c1) - f(&c0)) as f64;
    let setup = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
    let flush_ns = layers.flush_ns;
    let metrics: Vec<Metric> = vec![
        ("stub.self_ns", layers.stub_ns / calls, "ns"),
        ("stub.allocs_per_call", layers.stub_allocs / calls, "count"),
        ("transport.self_ns", layers.transport_ns / calls, "ns"),
        ("transport.allocs_per_call", layers.transport_allocs / calls, "count"),
        ("transport.self_ns.read", layers.transport_read_ns, "ns"),
        ("transport.self_ns.write", layers.transport_write_ns, "ns"),
        ("handler.ns", layers.handler_ns, "ns"),
        ("engine.inline_share", ratio(d(|c| c.inline), d(|c| c.served)), "ratio"),
        ("engine.steals_per_call", d(|c| c.steals) / calls, "count"),
        ("engine.peak_in_flight", c1.peak_in_flight as f64, "count"),
        ("engine.shed", c1.shed as f64, "count"),
        ("engine.dispatch_errors", c1.dispatch_errors as f64, "count"),
        ("pipe.encode_ns", ratio(layers.encode_ns, batches), "ns"),
        ("pipe.flush_ns", ratio(flush_ns, batches), "ns"),
        ("pipe.flush_self_ns", ratio(flush_ns - d(|c| c.service_ns), batches), "ns"),
        ("net.service_ns_per_call", d(|c| c.service_ns) / calls, "ns"),
        ("net.wire_ns_per_call", d(|c| c.wire_ns) / calls, "sim-ns"),
        ("net.bytes_per_call", d(|c| c.net_bytes) / calls, "B"),
        ("kernel.copy_bytes_per_call", d(|c| c.copy_bytes) / calls, "B"),
        ("kernel.register_ops_per_call", d(|c| c.register_ops) / calls, "count"),
        ("kernel.name_probes_per_call", d(|c| c.name_probes) / calls, "count"),
        ("replycache.live_entries", c1.rc_entries as f64, "count"),
        (
            "replycache.evictions_per_write",
            ratio(d(|c| c.rc_evictions), d(|c| c.rc_executions)),
            "count",
        ),
        ("setup.parse_s", setup(|t| t.parse), "s"),
        ("setup.compile_s", setup(|t| t.compile), "s"),
        ("setup.serve_s", setup(|t| t.serve), "s"),
        ("setup.connect_s", setup(|t| t.connect), "s"),
        (
            "cache.hit_ratio",
            ratio(
                after_setup.cache_hits as f64,
                (after_setup.cache_hits + after_setup.cache_misses) as f64,
            ),
            "ratio",
        ),
        ("allocs_per_call", allocs as f64 / calls, "count"),
        ("bench.generator_share", 1.0 - layers.root_ns / (traced.secs * 1e9), "ratio"),
        ("trace.overhead", median(untraced) / traced.calls_per_s(), "ratio"),
        ("trace.residual", layers.residual, "ratio"),
    ];

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.jsonl", wl.name()));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"cores\":{},\"commit\":\"{}\",\"traced_calls\":{}}}",
        wl.name(),
        args.seed,
        cores,
        commit(),
        traced.calls
    );
    span::write_jsonl(&path, &header, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans: {} recorded, written to {}", spans.len(), path.display());
    println!(
        "# per call: stub self {:.1} ns + transport self {:.1} ns + handler {:.1} ns \
         = {:.1} ns; root {:.1} ns; residual {:+.4}",
        layers.stub_ns / calls,
        layers.transport_ns / calls,
        layers.handler_total_ns / calls,
        (layers.stub_ns + layers.transport_ns + layers.handler_total_ns) / calls,
        layers.root_ns / calls,
        layers.residual
    );
    Ok(report(&tally, check, &metrics, &[("traced calls", calls)]))
}

/// Prints the human summary and the result line; returns whether the run
/// was correct.
fn report(
    tally: &Tally,
    check: Result<(), String>,
    metrics: &[Metric],
    extra: &[(&str, f64)],
) -> bool {
    if let Err(e) = &check {
        println!("# CHECK FAILED: {e}");
    }
    let correct = check.is_ok() && tally.failed == 0;
    println!(
        "# attempted={} failed={} failed_ratio={}",
        tally.calls,
        tally.failed,
        ratio(tally.failed as f64, tally.calls as f64)
    );
    for (name, v) in extra {
        println!("# {name}: {v}");
    }
    for (name, v, unit) in metrics {
        println!("# {name:32} {v:>20} {unit}");
    }
    println!("{}", json(correct, tally, metrics));
    correct
}

/// Per-layer sums over the traced phase's spans.
#[derive(Debug, Default)]
struct Layers {
    /// Σ root (`call` / `batch`) durations.
    root_ns: f64,
    /// Σ self time of `call`, `batch` and `pipe.encode`: the client stub.
    stub_ns: f64,
    stub_allocs: f64,
    /// Σ self time of `transport` and `pipe.flush`.
    transport_ns: f64,
    transport_allocs: f64,
    /// Mean `transport` self time per read / per write call.
    transport_read_ns: f64,
    transport_write_ns: f64,
    /// Σ and mean `handler` self time.
    handler_total_ns: f64,
    handler_ns: f64,
    /// Σ durations of `pipe.encode` and `pipe.flush`.
    encode_ns: f64,
    flush_ns: f64,
    /// (Σ self time of every span − Σ root) / Σ root: the overlap of
    /// concurrent children, 0 when every span nests on one thread.
    residual: f64,
}

impl Layers {
    fn from_spans(all: &[span::Span], phase_start: u64) -> Layers {
        let spans: Vec<span::Span> =
            all.iter().filter(|s| s.start >= phase_start).copied().collect();
        let costs = span::self_costs(&spans);
        let pos: std::collections::HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut l = Layers::default();
        let (mut handlers, mut reads, mut writes) = (0u64, 0u64, 0u64);
        let (mut read_ns, mut write_ns) = (0.0, 0.0);
        let mut self_sum = 0.0;
        for (s, c) in spans.iter().zip(&costs) {
            let (ns, allocs) = (c.ns as f64, c.allocs as f64);
            self_sum += ns;
            match s.name {
                span::CALL | span::BATCH | span::ENCODE => {
                    l.stub_ns += ns;
                    l.stub_allocs += allocs;
                }
                span::TRANSPORT | span::FLUSH => {
                    l.transport_ns += ns;
                    l.transport_allocs += allocs;
                }
                span::HANDLER => {
                    l.handler_total_ns += ns;
                    handlers += 1;
                }
                _ => {}
            }
            if matches!(s.name, span::CALL | span::BATCH) && s.parent == span::NONE {
                l.root_ns += s.duration() as f64;
            }
            if s.name == span::ENCODE {
                l.encode_ns += s.duration() as f64;
            }
            if s.name == span::FLUSH {
                l.flush_ns += s.duration() as f64;
            }
            if s.name == span::TRANSPORT {
                let op = pos.get(&s.parent).map(|&p| spans[p].detail);
                match op {
                    Some(0) => {
                        reads += 1;
                        read_ns += ns;
                    }
                    Some(_) => {
                        writes += 1;
                        write_ns += ns;
                    }
                    None => {}
                }
            }
        }
        l.handler_ns = ratio(l.handler_total_ns, handlers as f64);
        l.transport_read_ns = ratio(read_ns, reads as f64);
        l.transport_write_ns = ratio(write_ns, writes as f64);
        l.residual = ratio(self_sum - l.root_ns, l.root_ns);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_parsed_strictly() {
        let a = args("--workload bulk_ipc --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::BulkIpc, 7, 10, true));
        for bad in [
            "--workload bulk_ipc --seed 7 --seconds 10",
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload bulk_ipc --seed -1 --seconds 10 --trace 0",
            "--workload bulk_ipc --seed 7 --seconds 0 --trace 0",
            "--workload bulk_ipc --seed 7 --seconds 10 --trace 2",
            "--workload bulk_ipc --seed 7 --seconds 10 --trace 0 --extra 1",
            "--workload bulk_ipc --seed 7 --seed 8 --seconds 10 --trace 0",
            "--workload bulk_ipc --seed 7 --seconds 10 --trace",
        ] {
            assert!(args(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile((0..=10).map(f64::from).collect(), 0.1), 1.0);
        assert_eq!(percentile(vec![10.0, 20.0], 0.1), 11.0);
        assert_eq!(percentile(vec![], 0.5), 0.0);
    }
}
