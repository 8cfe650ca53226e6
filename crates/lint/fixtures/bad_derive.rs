// lint-fixture: crates/mpc/src/dealer.rs
//! Known-bad: Debug derive and Display impl on share-holding types
//! without an allowlist marker (rule `no-debug-on-shares`).

#[derive(Clone, Debug)]
pub struct EdaBit {
    pub arith: Vec<u64>,
    pub bits: Vec<u64>,
}

impl std::fmt::Display for EdaBitBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.share)
    }
}
