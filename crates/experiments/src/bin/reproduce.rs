//! Command-line driver regenerating the paper's figures and tables.
//!
//! ```text
//! reproduce [--scale paper|reduced|smoke] [--seed N] [--csv] [--gnuplot] [--out DIR] [EXPERIMENT ...]
//! reproduce --list
//! ```
//!
//! Without experiment ids, every registered experiment is run. Output goes to stdout, and
//! additionally to `<out>/<id>.csv` when `--out` is given; `--gnuplot` additionally writes a
//! self-contained `<out>/<id>.gp` gnuplot script for every figure-shaped experiment.

use sfo_analysis::{suggested_scale, to_gnuplot};
use sfo_experiments::{all_experiments, run_experiment, ExperimentOutput, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    scale: Scale,
    seed: u64,
    csv: bool,
    gnuplot: bool,
    out_dir: Option<PathBuf>,
    experiments: Vec<String>,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        scale: Scale::reduced(),
        seed: 42,
        csv: false,
        gnuplot: false,
        out_dir: None,
        experiments: Vec::new(),
        list: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().ok_or("--scale requires a value")?;
                options.scale = match value.as_str() {
                    "paper" => Scale::paper(),
                    "reduced" => Scale::reduced(),
                    "smoke" => Scale::smoke(),
                    other => {
                        return Err(format!(
                            "unknown scale '{other}' (expected paper, reduced, or smoke)"
                        ))
                    }
                };
            }
            "--seed" => {
                let value = iter.next().ok_or("--seed requires a value")?;
                options.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed '{value}'"))?;
            }
            "--csv" => options.csv = true,
            "--gnuplot" => options.gnuplot = true,
            "--out" => {
                let value = iter.next().ok_or("--out requires a directory")?;
                options.out_dir = Some(PathBuf::from(value));
            }
            "--list" => options.list = true,
            "--help" | "-h" => {
                return Err(usage());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'\n{}", usage()))
            }
            other => options.experiments.push(other.to_string()),
        }
    }
    Ok(options)
}

fn usage() -> String {
    let mut text = String::from(
        "usage: reproduce [--scale paper|reduced|smoke] [--seed N] [--csv] [--gnuplot] [--out DIR] [EXPERIMENT ...]\n\
         \n  --list             list registered experiments\n\nexperiments:\n",
    );
    for spec in all_experiments() {
        text.push_str(&format!("  {:<18} {}\n", spec.id, spec.title));
    }
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    if options.list {
        for spec in all_experiments() {
            println!("{:<18} {}", spec.id, spec.title);
        }
        return ExitCode::SUCCESS;
    }

    let ids: Vec<String> = if options.experiments.is_empty() {
        all_experiments().iter().map(|s| s.id.to_string()).collect()
    } else {
        options.experiments.clone()
    };

    if let Some(dir) = &options.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for id in &ids {
        eprintln!("running {id} ...");
        let Some(output) = run_experiment(id, &options.scale, options.seed) else {
            eprintln!("unknown experiment '{id}'\n{}", usage());
            return ExitCode::FAILURE;
        };
        if options.csv {
            println!("{}", output.to_csv());
        } else {
            println!("{output}");
        }
        if let Some(dir) = &options.out_dir {
            let path = dir.join(format!("{id}.csv"));
            if let Err(e) = std::fs::write(&path, output.to_csv()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            if options.gnuplot {
                if let ExperimentOutput::Figure(figure) = &output {
                    let script = to_gnuplot(figure, suggested_scale(id));
                    let path = dir.join(format!("{id}.gp"));
                    if let Err(e) = std::fs::write(&path, script) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    ExitCode::SUCCESS
}
