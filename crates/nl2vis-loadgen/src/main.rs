//! The `nl2vis-loadgen` binary: parse flags, run the sweep, print the
//! table, write `BENCH_load.json`.
//!
//! ```text
//! cargo run -p nl2vis-loadgen --release -- \
//!     --threads=32 --duration=60 --rate=open:500
//! ```
//!
//! Prompt keys are always Zipf-skewed (exponent 1.1) and sampled from seed
//! 42; every other setting is a flag (see `--help`).

use nl2vis_loadgen::{results, run_load, LoadConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help());
        return;
    }
    let config = match LoadConfig::parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", help());
            std::process::exit(2);
        }
    };
    eprintln!(
        "[loadgen] threads={:?} rate={} prompts={} cache={} replicas={} warmup={:.0}s duration={:.0}s",
        config.threads,
        config.arrival.label(),
        config.prompts,
        config.cache_capacity,
        config.replicas,
        config.warmup.as_secs_f64(),
        config.duration.as_secs_f64(),
    );
    match run_load(&config) {
        Ok((json, runs)) => {
            print!("{}", results::render_table(&runs));
            if !config.out.is_empty() {
                match std::fs::write(&config.out, json.to_pretty()) {
                    Ok(()) => eprintln!("[loadgen] wrote {}", config.out),
                    Err(e) => {
                        eprintln!("[loadgen] failed to write {}: {e}", config.out);
                        std::process::exit(1);
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn help() -> String {
    "\
nl2vis-loadgen: sustained load harness for the completion server

flags (all --key=value):
  --threads=N[,N..]    worker thread counts to sweep        [8]
  --duration=SECS      measured phase per thread count      [10]
  --warmup=SECS        unmeasured warmup phase              [2]
  --rate=closed|open:RPS arrival discipline                 [closed]
  --prompts=N          distinct prompts in the pool,
                       drawn zipf:1.1                       [256]
  --cache=N            client-side cache capacity, 0 = off  [0]
  --service-ms=MS      injected service time (self-hosted)  [2]
  --tail=P:MS|off      heavy-tail stall: probability P, MS  [off]
  --replicas=N         self-hosted replica fleet size       [1]
  --hedge-ms=MS        hedge delay when routed, 0 = off     [15]
  --server=self|HOST:PORT target server                     [self]
  --server-workers=N   self-hosted worker pool size         [16]
  --server-queue=N     self-hosted accept-queue depth       [64]
  --out=PATH           results file, empty to skip          [BENCH_load.json]
  --report=SECS        live progress interval, 0 = quiet    [2]
  --model=NAME         model the server hosts; self-hosted
                       runs serve that profile              [text-davinci-003]
"
    .to_string()
}
