//! `semloc-lint` CLI.
//!
//! ```text
//! semloc-lint [--root <dir>] [--deny-all] [--json | --sarif]
//!             [--write-summary <path>] [--write-sarif <path>]
//! semloc-lint --explain <rule> | --list-rules
//! ```
//!
//! Exit codes: 0 clean, 1 findings at (or promoted to) deny level,
//! 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use semloc_lint::rules::{rule, RULES};
use semloc_lint::sarif::to_sarif;
use semloc_lint::{lint, load_workspace, to_json, Severity};

fn usage() -> &'static str {
    "semloc-lint: workspace static analysis (checkpoint coverage, stats folds, RefCell borrows, env knobs)

USAGE:
    semloc-lint [OPTIONS]

OPTIONS:
    --root <dir>            Workspace root (default: auto-detect from cwd)
    --deny-all              Promote warn-level findings to deny (CI mode)
    --json                  Emit the machine-readable JSON report on stdout
    --sarif                 Emit a SARIF 2.1.0 report on stdout (CI annotations)
    --write-summary <path>  Also write the JSON report to <path>
    --write-sarif <path>    Also write the SARIF report to <path>
    --explain <rule>        Print a rule's full rationale (id or alias, e.g. d4)
    --list-rules            List the rule catalog
    -h, --help              This help
"
}

/// Walk up from `start` to the first directory whose Cargo.toml declares
/// a `[workspace]`.
fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut deny_all = false;
    let mut json = false;
    let mut sarif = false;
    let mut summary_path: Option<PathBuf> = None;
    let mut sarif_path: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--deny-all" => deny_all = true,
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--write-summary" => match it.next() {
                Some(p) => summary_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--write-summary needs a path\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--write-sarif" => match it.next() {
                Some(p) => sarif_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--write-sarif needs a path\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for r in &RULES {
                    println!(
                        "{:<26} ({})  [{}]  {}",
                        r.id,
                        r.alias,
                        r.severity.label(),
                        r.summary
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                return match it.next().and_then(|id| rule(id)) {
                    Some(r) => {
                        println!("{} ({}) — {}\n\n{}", r.id, r.alias, r.summary, r.explain);
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!(
                            "--explain needs a known rule id; one of: {}",
                            RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
                        );
                        ExitCode::from(2)
                    }
                };
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
        Some(r) => r,
        None => {
            eprintln!(
                "could not locate a workspace root (no Cargo.toml with [workspace]); pass --root"
            );
            return ExitCode::from(2);
        }
    };

    if json && sarif {
        eprintln!("--json and --sarif are mutually exclusive (use --write-sarif to get both)");
        return ExitCode::from(2);
    }

    // Timing lives here in the CLI, not the library: the lint pass itself
    // is clock-free, but BENCH_lint.json tracks how long a full workspace
    // parse+lint takes as the rule set grows.
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI-only measurement for BENCH_lint.json; never reaches simulation output"
    )]
    let t0 = std::time::Instant::now();

    let ws = match load_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("failed to load workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let mut report = lint(&ws);
    report.parse_ms = Some(t0.elapsed().as_millis() as u64);
    let rendered = to_json(&report);

    if let Some(path) = &summary_path {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &sarif_path {
        if let Err(e) = std::fs::write(path, to_sarif(&report)) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if json {
        print!("{rendered}");
    } else if sarif {
        print!("{}", to_sarif(&report));
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        println!(
            "semloc-lint: {} files, {} rules, {} deny / {} warn finding(s), {} pragma(s) honored",
            report.files_scanned,
            RULES.len(),
            report.deny_count(),
            report.warn_count(),
            report.pragmas_honored
        );
    }

    let failing = if deny_all {
        report.findings.len()
    } else {
        report
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    };
    if failing > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
