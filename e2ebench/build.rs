//! Stamps the binary with the compiler version and, when the source tree is
//! a git checkout, its commit — both go into every run's host envelope.

use std::path::Path;
use std::process::Command;

/// Watches `path` for a rebuild, but only if it exists: Cargo treats a
/// missing watched path as always changed and would rebuild every run.
fn watch(path: &Path) {
    if path.exists() {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

fn commit(git: &Path) -> Option<String> {
    watch(&git.join("HEAD"));
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    watch(&git.join(reference));
    watch(&git.join("packed-refs"));
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_owned)
    })
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    println!(
        "cargo:rustc-env=E2EBENCH_RUSTC={}",
        version.unwrap_or_else(|| "unknown".into())
    );
    let commit = commit(Path::new("../.git")).map(|c| c.chars().take(12).collect::<String>());
    println!(
        "cargo:rustc-env=E2EBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".into())
    );
}
