//! Stamps the run record with the toolchain and the source revision.
//! The revision is the git commit when the tree is a git checkout and a
//! digest of the benchmarked sources otherwise (an exported tree has no
//! `.git`), so two runs of one tree always carry the same stamp.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".into());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");

    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    // FNV-1a over every path (relative to the repository root) and its
    // bytes.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        let rel = f.strip_prefix(&root).unwrap_or(f);
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={hash:016x}");
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=../vendor");
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if matches!(
            p.extension().and_then(|x| x.to_str()),
            Some("rs") | Some("toml")
        ) {
            out.push(p);
        }
    }
}
