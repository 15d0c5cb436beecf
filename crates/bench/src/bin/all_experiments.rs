//! Regenerate the paper comparison: every section of [`semloc_bench`], or
//! the one `--only` names.
//!
//! ```text
//! all_experiments [--only <id>] [<file.md>]
//! ```
//!
//! Without a file, each section prints to stdout between its
//! `<!-- semloc:begin <id> -->` and `<!-- semloc:end <id> -->` markers.
//! With a file, the text between each printed section's markers is
//! replaced in place. If a section's markers are missing, a marker names
//! no section or a block is unterminated, the file is left untouched and
//! the exit status is 1; the markers are checked before any simulation.
//! `SEMLOC_BUDGET` sets the instructions per run (default 400 000); the
//! full run takes about 15 s on a 2-vCPU host. With `SEMLOC_CKPT_DIR` set,
//! every finished cell is kept there, so a rerun (after a kill, say)
//! answers those cells from their files.

use std::process::exit;

use semloc_bench::{block, fenced, section, splice, SECTIONS};
use semloc_harness::SimConfig;

fn usage() -> ! {
    eprintln!("usage: all_experiments [--only <id>] [<file.md>]");
    exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("all_experiments: {msg}");
    exit(1);
}

fn main() {
    let (mut only, mut path) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" if only.is_none() => only = Some(args.next().unwrap_or_else(|| usage())),
            a if a.starts_with('-') => usage(),
            _ if path.is_none() => path = Some(arg),
            _ => usage(),
        }
    }
    let ids: Vec<&str> = match only.as_deref() {
        Some(id) if section(id).is_none() => {
            let known = SECTIONS.map(|(s, _)| s).join(", ");
            fail(&format!("unknown section {id:?}; one of {known}"))
        }
        Some(id) => vec![id],
        None => SECTIONS.iter().map(|(s, _)| *s).collect(),
    };
    let doc = path.as_ref().map(|path| {
        let doc = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        let empty: Vec<_> = ids.iter().map(|&id| (id, String::new())).collect();
        if let Err(e) = splice(&doc, &empty) {
            fail(&format!("{path}: {e}"));
        }
        doc
    });

    let cfg = SimConfig::default();
    eprintln!("budget {} instructions per run", cfg.instr_budget);
    let mut bodies = Vec::new();
    for id in ids {
        eprintln!("[section] {id}");
        let body = fenced(&section(id).expect("a listed section")(&cfg));
        if doc.is_none() {
            print!("{}", block(id, &body));
        }
        bodies.push((id, body));
    }
    if let (Some(path), Some(doc)) = (path, doc) {
        let out = splice(&doc, &bodies).expect("markers checked before the run");
        std::fs::write(&path, out).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    }
}
