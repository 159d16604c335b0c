//! The `layering` rule: machine-checks the workspace dependency DAG.
//!
//! The simulator's crates form a strict hierarchy — each layer may only
//! reach *down*:
//!
//! ```text
//! layer 0  types                      (vocabulary)
//! layer 1  engine                     (DES kernel)
//! layer 2  backend                    (the MemoryBackend trait)
//! layer 3  mem  host  thermal  power  (device models)
//! layer 4  core                       (assembled systems)
//! layer 5  bench                      (harnesses, CLI)
//! ```
//!
//! `mem` holds every memory technology the characterization harness in
//! `core` compares: the HMC device and the HBM and DDR3 channel-array
//! devices.
//!
//! The rule is enforced twice, so neither half can drift alone:
//!
//! 1. **Manifests** — each crate's `Cargo.toml` `[dependencies]`
//!    section may only name internal crates from the explicit allowed
//!    set below (the DAG edges, not just "any lower layer": adding a
//!    new edge is a conscious table edit reviewed with this file).
//! 2. **Sources** — any `use`/path reference to an internal crate
//!    ident (`hmc_core::…`) outside the allowed set is flagged at the
//!    offending line, catching imports that sneak in before the
//!    manifest is touched (or through a re-export).
//!
//! Upward imports (a model crate reaching into `core`) and lateral
//! imports (`mem` reaching into `host`) both fail, so future backends
//! can slot into the model layer without tangling their siblings.

use crate::lexer::{Token, TokenKind};
use crate::Finding;

/// One workspace crate's position in the DAG.
#[derive(Debug)]
pub struct LayerSpec {
    /// Directory name under `crates/` (also the scan key).
    pub dir: &'static str,
    /// Package name as spelled in `Cargo.toml` dependency keys.
    pub package: &'static str,
    /// Crate ident as spelled in `use` statements.
    pub ident: &'static str,
    /// Layer number (0 = bottom); informational, the `allowed` edge
    /// list is what the rule enforces.
    pub layer: u8,
    /// Directory names of the internal crates this crate may depend on.
    pub allowed: &'static [&'static str],
}

/// The workspace DAG. `lint` is a standalone tool (no internal deps);
/// `criterion` is the offline bench shim and is only ever a
/// dev-dependency, which the rule does not police.
pub const LAYERS: &[LayerSpec] = &[
    LayerSpec {
        dir: "types",
        package: "hmc-types",
        ident: "hmc_types",
        layer: 0,
        allowed: &[],
    },
    LayerSpec {
        dir: "engine",
        package: "sim-engine",
        ident: "sim_engine",
        layer: 1,
        allowed: &["types"],
    },
    LayerSpec {
        dir: "backend",
        package: "mem-backend",
        ident: "mem_backend",
        layer: 2,
        // The trait crate sits below every device model and must never
        // import the host or system layers: backends plug into the
        // host, not the other way around.
        allowed: &["types", "engine"],
    },
    LayerSpec {
        dir: "mem",
        package: "hmc-mem",
        ident: "hmc_mem",
        layer: 3,
        allowed: &["types", "engine", "backend"],
    },
    LayerSpec {
        dir: "host",
        package: "hmc-host",
        ident: "hmc_host",
        layer: 3,
        allowed: &["types", "engine"],
    },
    LayerSpec {
        dir: "thermal",
        package: "hmc-thermal",
        ident: "hmc_thermal",
        layer: 3,
        allowed: &["types", "engine"],
    },
    LayerSpec {
        dir: "power",
        package: "hmc-power",
        ident: "hmc_power",
        layer: 3,
        allowed: &["types", "engine"],
    },
    LayerSpec {
        dir: "core",
        package: "hmc-core",
        ident: "hmc_core",
        layer: 4,
        allowed: &[
            "types", "engine", "backend", "mem", "host", "thermal", "power",
        ],
    },
    LayerSpec {
        dir: "bench",
        package: "hmc-bench",
        ident: "hmc_bench",
        layer: 5,
        allowed: &["types", "engine", "core"],
    },
    LayerSpec {
        dir: "lint",
        package: "hmc-lint",
        ident: "hmc_lint",
        layer: 5,
        allowed: &[],
    },
];

/// Looks up a crate's spec by directory name.
pub fn spec(dir: &str) -> Option<&'static LayerSpec> {
    LAYERS.iter().find(|s| s.dir == dir)
}

fn violation(from: &LayerSpec, to: &LayerSpec) -> String {
    let kind = if to.layer > from.layer {
        "upward"
    } else if to.layer == from.layer {
        "lateral"
    } else {
        "undeclared"
    };
    format!(
        "{} import: `{}` (layer {}) must not depend on `{}` (layer {})",
        kind, from.dir, from.layer, to.dir, to.layer
    )
}

/// Checks one crate's `Cargo.toml` text against the DAG. Only the
/// `[dependencies]` section is policed: dev-dependencies may reach
/// anywhere (tests legitimately pull harness crates).
pub fn check_manifest(crate_dir: &str, label: &str, manifest: &str) -> Vec<Finding> {
    let Some(me) = spec(crate_dir) else {
        return Vec::new();
    };
    let mut findings = Vec::new();
    let mut in_deps = false;
    for (idx, line) in manifest.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_deps = trimmed == "[dependencies]";
            continue;
        }
        if !in_deps || trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // Dependency keys read `name.workspace = true`, `name = {…}`,
        // or `name = "…"`; the key ends at `.`, `=`, or whitespace.
        let key = trimmed
            .split(['.', '=', ' ', '\t'])
            .next()
            .unwrap_or("")
            .trim_matches('"');
        if let Some(dep) = LAYERS.iter().find(|s| s.package == key) {
            if !me.allowed.contains(&dep.dir) {
                findings.push(Finding {
                    file: label.to_string(),
                    line: idx + 1,
                    rule: "layering",
                    excerpt: format!("{trimmed}  ({})", violation(me, dep)),
                });
            }
        }
    }
    findings
}

/// Checks one source file's token stream for references to internal
/// crates outside the allowed set: `use hmc_core::…`, `extern crate`,
/// or any qualified path `hmc_core::…`.
pub fn check_source(crate_dir: &str, label: &str, tokens: &[Token<'_>]) -> Vec<Finding> {
    let Some(me) = spec(crate_dir) else {
        return Vec::new();
    };
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| t.is_code()).collect();
    let txt = |i: usize| code.get(i).map(|t| t.text).unwrap_or("");
    let mut findings = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text == me.ident {
            continue;
        }
        let Some(dep) = LAYERS.iter().find(|s| s.ident == t.text) else {
            continue;
        };
        // A crate ident counts as an import when used as a path *root*
        // (`hmc_core::…`) or named by `use` / `extern crate`. An ident
        // preceded by `::` is a member of another crate's namespace
        // (`hmc_core::hmc_host::…` goes through core's sanctioned
        // re-export, whose edge the DAG already polices at `core`).
        let at_root = !(i >= 1 && txt(i - 1) == ":");
        let is_path = txt(i + 1) == ":" && txt(i + 2) == ":";
        let is_use = i >= 1 && (txt(i - 1) == "use" || txt(i - 1) == "crate");
        if at_root && (is_path || is_use) && !me.allowed.contains(&dep.dir) {
            findings.push(Finding {
                file: label.to_string(),
                line: t.line,
                rule: "layering",
                excerpt: violation(me, dep),
            });
        }
    }
    findings.dedup_by(|a, b| a.line == b.line);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn upward_import_is_rejected() {
        // The synthetic upward import the acceptance criteria call for:
        // the DES kernel reaching into the assembled-system layer.
        let src = "use hmc_core::System;\nfn f() { hmc_core::run(); }";
        let found = check_source("engine", "crates/engine/src/lib.rs", &lex(src));
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].rule, "layering");
        assert_eq!(found[0].line, 1);
        assert!(found[0].excerpt.contains("upward"));
    }

    #[test]
    fn lateral_import_is_rejected() {
        let src = "use hmc_host::HostConfig;";
        let found = check_source("mem", "crates/mem/src/device.rs", &lex(src));
        assert_eq!(found.len(), 1);
        assert!(found[0].excerpt.contains("lateral"));
    }

    #[test]
    fn undeclared_downward_edge_is_rejected() {
        // bench may not reach host even though host is a lower layer:
        // the DAG is an explicit edge list, not a layer inequality.
        let src = "use hmc_host::Host;";
        let found = check_source("bench", "crates/bench/src/lib.rs", &lex(src));
        assert_eq!(found.len(), 1);
        assert!(found[0].excerpt.contains("undeclared"));
    }

    #[test]
    fn declared_edges_pass() {
        let src = "use hmc_types::Time;\nuse sim_engine::EventQueue;\nuse hmc_mem::Device;";
        assert!(check_source("core", "crates/core/src/system.rs", &lex(src)).is_empty());
        // Self-references are always fine.
        let src = "use hmc_mem::vault::Vault;";
        assert!(check_source("mem", "crates/mem/src/lib.rs", &lex(src)).is_empty());
    }

    #[test]
    fn prose_mentions_do_not_count() {
        // A doc comment or string naming a crate is not an import.
        let src = "// hmc_core owns the systems\nlet s = \"hmc_core\";\nlet hmc_core = 1;";
        assert!(check_source("engine", "crates/engine/src/lib.rs", &lex(src)).is_empty());
    }

    #[test]
    fn manifest_upward_dep_is_rejected() {
        let toml = "[package]\nname = \"sim-engine\"\n\n[dependencies]\nhmc-types.workspace = true\nhmc-core.workspace = true\n\n[dev-dependencies]\nhmc-bench.workspace = true\n";
        let found = check_manifest("engine", "crates/engine/Cargo.toml", toml);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 6);
        assert!(found[0].excerpt.contains("hmc-core"));
        assert!(found[0].excerpt.contains("upward"));
    }

    #[test]
    fn manifest_declared_edges_pass() {
        let toml =
            "[dependencies]\nhmc-types.workspace = true\nsim-engine = { path = \"../engine\" }\n";
        assert!(check_manifest("mem", "crates/mem/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn dag_is_acyclic_and_layers_match_edges() {
        // Sanity over the table itself: every allowed edge points to a
        // declared crate in a strictly lower layer.
        for s in LAYERS {
            for dep in s.allowed {
                let d = spec(dep).expect("edge target is declared");
                assert!(
                    d.layer < s.layer,
                    "{} (layer {}) -> {} (layer {}) is not downward",
                    s.dir,
                    s.layer,
                    d.dir,
                    d.layer
                );
            }
        }
    }
}
