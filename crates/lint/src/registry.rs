//! The trust-boundary map: which modules parse hostile bytes, which
//! types hold key material, which enums are fail-closed taxonomies.
//!
//! The registry is the linter's model of the paper's security
//! argument. Rules fire *relative to it*: a parser that is not
//! registered is itself a finding ([`crate::rules`] `unregistered-parser`),
//! so a future PR that adds a wire format cannot silently opt out —
//! it either registers the module (inheriting the panic-free rules) or
//! documents an exemption here with a reason. `nymix-lint --report`
//! dumps the whole map as JSON.

use nymix_obs::registry::{COUNTERS, GAUGES, HISTOGRAMS, LABEL_KEYS, STAGES};

/// A module whose parsers are fed attacker-controlled bytes and must
/// fail closed instead of panicking or truncating.
#[derive(Debug, Clone)]
pub struct TrustModule {
    /// Path suffix matched against workspace-relative file paths.
    pub path: String,
    /// Which invariant this boundary guards (threat-model rationale).
    pub rationale: String,
}

/// A type holding key material: must not derive `Debug`/`Clone`, must
/// zeroize on drop, must never reach a `format!`-family macro.
#[derive(Debug, Clone)]
pub struct SecretType {
    pub name: String,
    /// Path suffix of the file defining the type.
    pub defined_in: String,
    pub rationale: String,
}

/// An error enum that must be matched exhaustively (no wildcard arms)
/// in the registered paths, so a new variant forces a decision at
/// every fail-closed site.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    /// Enum name, matched as a pattern identifier.
    pub enum_name: String,
    /// Path fragments; files containing one are policed.
    pub paths: Vec<String>,
    pub rationale: String,
}

/// An exemption from a registration-freshness rule, with the written
/// reason the report surfaces.
#[derive(Debug, Clone)]
pub struct Exemption {
    pub path_or_name: String,
    pub reason: String,
}

/// Everything the rules consult. [`Registry::nymix`] is the workspace's
/// live map; tests build synthetic registries over fixtures.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub trust_modules: Vec<TrustModule>,
    pub secret_types: Vec<SecretType>,
    pub taxonomies: Vec<Taxonomy>,
    /// AEAD seal entry points; literal nonce/key arrays at their call
    /// sites are findings.
    pub seal_fns: Vec<String>,
    /// Path suffix of the constant-time module; `==` on tags/MACs is
    /// only legal here.
    pub ct_module: String,
    /// Parser-shaped files exempt from `unregistered-parser`.
    pub exempt_parsers: Vec<Exemption>,
    /// Secret-named types exempt from `unregistered-secret`.
    pub exempt_secrets: Vec<Exemption>,
    /// Cfg-isolated SIMD kernel files exempt from the `forbid-unsafe`
    /// token ban; the crate holding one may gate its root with an
    /// unconditional `deny(unsafe_code)` instead of `forbid`.
    /// Registration is not a blank cheque: the rule
    /// cross-checks that the file really is a fenced kernel
    /// (`#[target_feature]` plus a `deny(unsafe_op_in_unsafe_fn)`
    /// header) and keeps flagging if the fences are missing, and
    /// `unsafe` anywhere else in the workspace stays a hard finding.
    pub unsafe_kernels: Vec<Exemption>,
    /// The `nymix-obs` static vocabulary — every stage name, label
    /// key, and metric name admissible at an obs macro call site,
    /// read from `nymix_obs::registry`'s tables. Empty = obs hygiene
    /// not policed.
    pub obs_labels: Vec<String>,
}

impl Registry {
    fn module(path: &str, rationale: &str) -> TrustModule {
        TrustModule {
            path: path.to_string(),
            rationale: rationale.to_string(),
        }
    }

    fn secret(name: &str, defined_in: &str, rationale: &str) -> SecretType {
        SecretType {
            name: name.to_string(),
            defined_in: defined_in.to_string(),
            rationale: rationale.to_string(),
        }
    }

    /// The workspace's registered trust boundaries. This is the map
    /// `--report` emits; PRs that add a wire format or key type extend
    /// it here (or land an exemption with a reason).
    pub fn nymix() -> Self {
        Registry {
            trust_modules: vec![
                Self::module(
                    "store/src/archive.rs",
                    "NYM1 wire format: first parser to touch bytes fetched from an \
                     untrusted provider (PR 3 hardening)",
                ),
                Self::module(
                    "store/src/delta.rs",
                    "NYMD delta frames: hostile deltas must fail the record-count and \
                     records-root checks closed, never panic",
                ),
                Self::module(
                    "store/src/cas.rs",
                    "NYMC chunk manifests: structural invariants on provider-served \
                     bytes (PR 4)",
                ),
                Self::module(
                    "store/src/chain.rs",
                    "snapshot-chain names from the provider's listing and the base, \
                     delta and chunk blobs it serves: a planted name or a hostile \
                     epoch must fail the save or restore closed, never panic",
                ),
                Self::module(
                    "store/src/lzss.rs",
                    "decompressor runs on authenticated-but-possibly-corrupt bytes and \
                     pre-auth sizing paths; must parse-or-error (PR 2)",
                ),
                Self::module(
                    "store/src/sealed.rs",
                    "NYS1 sealed-blob header: parsed before authentication, directly \
                     attacker-controlled (PR 3)",
                ),
                Self::module(
                    "store/src/placement/shard.rs",
                    "NYMP shard headers from byzantine backends: every-bit-flip must \
                     reject, never panic (PR 7)",
                ),
                Self::module(
                    "store/src/disk/log.rs",
                    "NYMJ superblock and JBAT frame decoders: recovery reads whatever \
                     survived the crash, and torn or bit-flipped images must fail closed",
                ),
                Self::module(
                    "anon/src/tor.rs",
                    "TGS2 guard-state blobs: persisted guard sets are recovered from \
                     untrusted storage, and a panic here loses the §3.5 guard \
                     continuity defence",
                ),
                Self::module(
                    "sanitizer/src/formats.rs",
                    "document/image parsers inside SaniVM: the malware-scrub path runs \
                     on fully hostile files (paper §3.4)",
                ),
            ],
            secret_types: vec![
                Self::secret(
                    "SealKey",
                    "store/src/sealed.rs",
                    "PBKDF2 output sealing every nym archive; a Debug/format leak or \
                     stray clone defeats the password (paper §3.5)",
                ),
                Self::secret(
                    "HmacKey",
                    "crypto/src/hmac.rs",
                    "ipad/opad midstates are key-equivalent material (PBKDF2 inner loop)",
                ),
                Self::secret(
                    "ChaCha20",
                    "crypto/src/chacha20.rs",
                    "cipher state embeds the key words and buffered keystream",
                ),
                Self::secret(
                    "Poly1305",
                    "crypto/src/poly1305.rs",
                    "r/s one-time authenticator key limbs; leak forges tags",
                ),
            ],
            taxonomies: vec![Taxonomy {
                enum_name: "BackendError".to_string(),
                paths: vec![
                    "core/src/manager/".to_string(),
                    "store/src/chain.rs".to_string(),
                ],
                rationale: "degraded providers must fail closed: a wildcard arm lets a \
                            future variant (PR 7 added Unavailable) silently fall into \
                            the wrong availability class"
                    .to_string(),
            }],
            seal_fns: vec!["seal_in_place_detached".to_string()],
            ct_module: "crypto/src/ct.rs".to_string(),
            exempt_parsers: vec![Exemption {
                path_or_name: "store/src/disk/dev.rs".to_string(),
                reason: "SimDisk images are parsed only by the frame log's decoders \
                             (registered); dev.rs itself only stores bytes"
                    .to_string(),
            }],
            exempt_secrets: vec![Exemption {
                path_or_name: "SecretType".to_string(),
                reason: "nymix-lint's own registry metadata struct; it names secret \
                         types, it does not hold key material"
                    .to_string(),
            }],
            unsafe_kernels: vec![Exemption {
                path_or_name: "crypto/src/sha256/shani.rs".to_string(),
                reason: "SHA-NI compression kernel: hardware intrinsics are \
                         inherently unsafe. Compiled on every x86_64 build and \
                         selected by CPUID dispatch only, every kernel fn is \
                         `#[target_feature]`-fenced, and the safe wrapper \
                         re-verifies CPU features at runtime with a portable \
                         fallback. Its crate root is the one that may carry \
                         `#![deny(unsafe_code)]` instead of forbid"
                    .to_string(),
            }],
            obs_labels: [STAGES, LABEL_KEYS, COUNTERS, GAUGES, HISTOGRAMS]
                .concat()
                .into_iter()
                .map(str::to_string)
                .collect(),
        }
    }

    /// True when `rel_path` is a registered trust-boundary module.
    pub fn is_trust_module(&self, rel_path: &str) -> bool {
        self.trust_modules
            .iter()
            .any(|m| rel_path.ends_with(&m.path))
    }

    /// Taxonomies applying to `rel_path`.
    pub fn taxonomies_for<'a>(&'a self, rel_path: &'a str) -> impl Iterator<Item = &'a Taxonomy> {
        self.taxonomies
            .iter()
            .filter(move |t| t.paths.iter().any(|p| rel_path.contains(p.as_str())))
    }

    /// The registered secret type named `name`, if any.
    pub fn secret_named(&self, name: &str) -> Option<&SecretType> {
        self.secret_types.iter().find(|s| s.name == name)
    }

    pub fn parser_exempt(&self, rel_path: &str) -> bool {
        self.exempt_parsers
            .iter()
            .any(|e| rel_path.ends_with(&e.path_or_name))
    }

    pub fn secret_exempt(&self, name: &str) -> bool {
        self.exempt_secrets.iter().any(|e| e.path_or_name == name)
    }

    /// The registered unsafe-kernel exemption covering `rel_path`, if
    /// any.
    pub fn unsafe_kernel(&self, rel_path: &str) -> Option<&Exemption> {
        self.unsafe_kernels
            .iter()
            .find(|e| rel_path.ends_with(&e.path_or_name))
    }

    /// True when `name` is in the registered obs vocabulary.
    pub fn obs_label(&self, name: &str) -> bool {
        self.obs_labels.iter().any(|l| l == name)
    }
}
