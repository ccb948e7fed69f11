//! Stamps the compiler version and source revision into the binary, for
//! the report's fingerprint.

use std::path::Path;
use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // A checkout without git metadata reports no revision.
    let rev = output("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "none".into());
    println!("cargo:rustc-env=DECISION_BENCH_RUSTC={version}");
    println!("cargo:rustc-env=DECISION_BENCH_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp when the checked-out commit moves. Watching a path that does
    // not exist would rerun this script, and rebuild the binary, every time.
    let head = Path::new("../.git/HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        if let Some(branch) = std::fs::read_to_string(head)
            .ok()
            .and_then(|h| h.strip_prefix("ref: ").map(|r| r.trim().to_string()))
        {
            if Path::new("../.git").join(&branch).exists() {
                println!("cargo:rerun-if-changed=../.git/{branch}");
            }
        }
    }
}
