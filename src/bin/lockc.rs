//! `lockc` — the lock-inference compiler driver.
//!
//! Reads a mini-language program with `atomic { .. }` sections and
//! either reports the inferred locks, emits IR, or runs the transformed
//! program under a chosen execution discipline.
//!
//! ```text
//! lockc program.atc                        # report inferred locks (k = 9)
//! lockc program.atc --k 3 --emit ir        # canonical IR before transformation
//! lockc program.atc --emit transformed     # IR with acquireAll/releaseAll
//! lockc program.atc --emit pointsto        # the Steensgaard partition
//! lockc program.atc --run main             # run under multi-grain locks
//! lockc program.atc --run worker --threads 8 --mode stm --args 1000
//! lockc program.atc --run main --mode validate   # Theorem-1 checking run
//! lockc program.atc --run worker --threads 8 --virtual   # virtual-time makespan
//! ```

use atomic_lock_inference::{interp, lockinfer, lockscheme, pointsto, replay};
use interp::{ExecMode, Machine, Options, SentinelConfig};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    input: String,
    k: usize,
    emit: Option<String>,
    run: Option<String>,
    threads: usize,
    mode: ExecMode,
    /// The sentinel the run is checked by (`--mode validate`).
    sentinel: Option<SentinelConfig>,
    run_args: Vec<i64>,
    virtual_time: bool,
    heap_cells: usize,
}

const USAGE: &str = "\
usage: lockc <program.atc> [options]

options:
  --k <n>            expression-lock length bound (default 9)
  --emit locks       print inferred locks per section (default)
  --emit ir          print the canonical IR
  --emit transformed print the IR after the acquireAll/releaseAll rewrite
  --emit pointsto    print the points-to partition
  --emit fmt         reformat the source (parse + pretty-print)
  --emit dot         Graphviz CFG of every function
  --run <fn>         execute <fn> in the transformed program
  --args <a,b,..>    integer arguments for --run
  --threads <n>      run <fn> on n threads (default 1)
  --mode <m>         global | multigrain (or mg) | stm (default multigrain), or
                     validate: multigrain with every in-section access
                     checked, the first unlicensed one an error
  --virtual          use the deterministic virtual-time scheduler and
                     report the makespan
  --heap <cells>     heap size in cells (default 4194304)
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: String::new(),
        k: 9,
        emit: None,
        run: None,
        threads: 1,
        mode: ExecMode::MultiGrain,
        sentinel: None,
        run_args: Vec::new(),
        virtual_time: false,
        heap_cells: 1 << 22,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut want = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--k" => args.k = want("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--emit" => args.emit = Some(want("--emit")?),
            "--run" => args.run = Some(want("--run")?),
            "--threads" => {
                args.threads = want("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--heap" => {
                args.heap_cells = want("--heap")?
                    .parse()
                    .map_err(|e| format!("--heap: {e}"))?
            }
            "--args" => {
                args.run_args = want("--args")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().map_err(|e| format!("--args: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--mode" => {
                let mode = want("--mode")?;
                (args.mode, args.sentinel) = replay::parse_exec_mode(&mode)
                    .ok_or_else(|| format!("unknown mode `{mode}`"))?;
            }
            "--virtual" => args.virtual_time = true,
            "-h" | "--help" => return Err(String::new()),
            other if args.input.is_empty() && !other.starts_with('-') => {
                args.input = other.to_owned()
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.input.is_empty() {
        return Err("no input file".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match drive(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn drive(args: Args) -> Result<(), String> {
    let src =
        std::fs::read_to_string(&args.input).map_err(|e| format!("reading {}: {e}", args.input))?;
    if args.emit.as_deref() == Some("fmt") {
        let module = lir::parser::parse(&src).map_err(|e| e.to_string())?;
        print!("{}", module.to_source());
        return Ok(());
    }
    let program = lir::compile(&src).map_err(|e| e.to_string())?;
    let pt = Arc::new(pointsto::PointsTo::analyze(&program));
    let cfg = lockscheme::SchemeConfig::full(args.k, program.elem_field_opt());
    let analysis = lockinfer::analyze_program(&program, &pt, cfg);
    let transformed = lockinfer::transform(&program, &analysis);

    match args.emit.as_deref() {
        Some("ir") => {
            print!("{program}");
            return Ok(());
        }
        Some("transformed") => {
            print!("{transformed}");
            return Ok(());
        }
        Some("pointsto") => {
            emit_pointsto(&program, &pt);
            return Ok(());
        }
        Some("locks") => {
            print!("{}", analysis.render(&program));
            println!("totals: {}", analysis.lock_counts());
            return Ok(());
        }
        Some("dot") => {
            emit_dot(&transformed);
            return Ok(());
        }
        Some(other) => return Err(format!("unknown --emit `{other}`")),
        None => {}
    }

    let Some(entry) = args.run else {
        // Default action: report the locks.
        print!("{}", analysis.render(&program));
        println!("totals: {}", analysis.lock_counts());
        return Ok(());
    };

    replay::check_run_size(args.threads, args.heap_cells, program.globals.len())?;
    let machine = Machine::new(
        Arc::new(transformed),
        pt,
        args.mode,
        Options {
            heap_cells: args.heap_cells,
            sentinel: args.sentinel,
            ..Options::default()
        },
    );
    if args.threads <= 1 && !args.virtual_time {
        let r = machine
            .run_named(&entry, &args.run_args)
            .map_err(|e| e.to_string())?;
        println!("{entry} returned {r}");
    } else if args.virtual_time {
        let (results, makespan) = machine
            .run_threads_virtual(&entry, args.threads, |_| args.run_args.clone())
            .map_err(|e| e.to_string())?;
        println!(
            "{entry} on {} virtual threads returned {:?}",
            args.threads, results
        );
        println!(
            "virtual makespan: {makespan} ticks ({:.6} s)",
            makespan as f64 * 1e-9
        );
    } else {
        let results = machine
            .run_threads(&entry, args.threads, |_| args.run_args.clone())
            .map_err(|e| e.to_string())?;
        println!("{entry} on {} threads returned {results:?}", args.threads);
    }
    for line in machine.output() {
        println!("[print] {line}");
    }
    if args.mode == ExecMode::Stm {
        let st = machine.stm_stats();
        println!("stm: {} commits, {} aborts", st.commits, st.aborts);
    }
    Ok(())
}

/// Graphviz rendering of each function's CFG (transformed program).
fn emit_dot(program: &lir::Program) {
    println!("digraph program {{");
    println!("  node [shape=box, fontname=monospace, fontsize=9];");
    for func in &program.functions {
        let fname = program.fn_name(func.id);
        println!("  subgraph cluster_{} {{", func.id.0);
        println!("    label=\"{fname}\";");
        for (i, ins) in func.body.iter().enumerate() {
            let text = program
                .render_instr(ins)
                .replace('\\', "\\\\")
                .replace('"', "\\\"");
            let short = if text.len() > 48 {
                format!("{}…", &text[..47])
            } else {
                text
            };
            println!("    n{}_{i} [label=\"{i}: {short}\"];", func.id.0);
        }
        for (i, _) in func.body.iter().enumerate() {
            for t in lir::cfg::successors(&func.body, i) {
                if (t as usize) < func.body.len() {
                    println!("    n{0}_{i} -> n{0}_{t};", func.id.0);
                }
            }
        }
        println!("  }}");
    }
    println!("}}");
}

fn emit_pointsto(program: &lir::Program, pt: &pointsto::PointsTo) {
    println!("{} points-to classes", pt.n_classes());
    for c in 0..pt.n_classes() {
        let class = pointsto::PtsClass(c);
        let vars = pt.vars_in_class(class);
        let sites = pt.sites_in_class(class);
        if vars.is_empty() && sites.is_empty() {
            continue;
        }
        let names: Vec<&str> = vars.iter().map(|v| program.var_name(*v)).collect();
        let site_strs: Vec<String> = sites
            .iter()
            .map(|s| format!("{}@{}", program.fn_name(s.func), s.idx))
            .collect();
        let deref = pt
            .deref(class)
            .map(|d| format!(" -> P{}", d.0))
            .unwrap_or_default();
        println!(
            "P{c}{deref}: vars [{}] allocs [{}]",
            names.join(", "),
            site_strs.join(", ")
        );
    }
}
