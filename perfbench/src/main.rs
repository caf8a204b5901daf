//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints the full report as one JSON line, then
//! the result line (`correct`, `attempted`, `failed`, `metrics`) last.

use atd_perfbench::{run, Config};

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: perfbench --workload <query_mix|restart> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = parse(flag, value),
            "--seconds" => seconds = parse(flag, value),
            "--trace" => trace = parse::<u8>(flag, value) == 1,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !atd_perfbench::workloads::WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let out = run(
        Config::new(&workload, seed, seconds, trace),
        &args.join(" "),
    );
    println!("{}", out.report.render());
    println!("{}", out.result.render());
}
