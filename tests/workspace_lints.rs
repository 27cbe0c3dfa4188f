//! Each crate's root is its contract: `unreachable_pub` is on for the
//! whole workspace, so a `pub` item no other crate can name is a
//! warning (and `-D warnings` in CI makes it an error). The lint lives
//! in the root manifest's `[workspace.lints.rust]` table and reaches a
//! crate only through that crate's `[lints] workspace = true`; a crate
//! added without the opt-in would leave the lint off silently. This
//! test reads every manifest and fails on a missing table or opt-in.

use std::fs;
use std::path::{Path, PathBuf};

/// The `key = value` lines of table `[name]` in a manifest, comments
/// and surrounding blanks stripped.
fn table(manifest: &str, name: &str) -> Vec<(String, String)> {
    let mut current = String::new();
    let mut out = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = header.trim().to_string();
        } else if current == name {
            if let Some((key, value)) = line.split_once('=') {
                out.push((key.trim().to_string(), value.trim().to_string()));
            }
        }
    }
    out
}

/// Does the workspace manifest turn `unreachable_pub` on?
fn workspace_lints_unreachable_pub(manifest: &str) -> bool {
    table(manifest, "workspace.lints.rust")
        .iter()
        .any(|(key, value)| key == "unreachable_pub" && value != "\"allow\"")
}

/// Does a crate manifest take the workspace's lints?
fn opts_into_workspace_lints(manifest: &str) -> bool {
    table(manifest, "lints")
        .iter()
        .any(|(key, value)| key == "workspace" && value == "true")
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_crate_takes_the_workspace_unreachable_pub_lint() {
    let root = root();
    let workspace = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        workspace_lints_unreachable_pub(&workspace),
        "the root Cargo.toml has no `unreachable_pub` in [workspace.lints.rust]"
    );
    let mut crates = 0;
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = entry.expect("crate dir").path().join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else { continue };
        assert!(
            opts_into_workspace_lints(&text),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
        crates += 1;
    }
    assert!(crates >= 20, "only {crates} crate manifests found");
}

#[test]
fn a_manifest_without_the_opt_in_is_refused() {
    let opted = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n\n[dependencies]\n";
    assert!(opts_into_workspace_lints(opted));
    for planted in [
        // No [lints] table at all.
        "[package]\nname = \"x\"\n\n[dependencies]\nlmad = { workspace = true }\n",
        // `workspace = true` under another table.
        "[package]\nname = \"x\"\nversion.workspace = true\n\n[dependencies.lmad]\nworkspace = true\n",
        // The table, opted out.
        "[package]\nname = \"x\"\n\n[lints]\nworkspace = false\n",
        // The opt-in commented out.
        "[package]\nname = \"x\"\n\n[lints]\n# workspace = true\n",
    ] {
        assert!(!opts_into_workspace_lints(planted), "accepted:\n{planted}");
    }
    assert!(!workspace_lints_unreachable_pub("[workspace.lints.rust]\nunreachable_pub = \"allow\"\n"));
    assert!(!workspace_lints_unreachable_pub("[workspace.lints.clippy]\nunreachable_pub = \"warn\"\n"));
}
