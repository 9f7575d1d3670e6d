//! Benchmark-only crate: the Criterion drivers live in `benches/` — one for
//! the paper's Figures A–I, one per further figure, table or ablation. This
//! library target exists solely so the package has a compilation root; all
//! content is in the bench targets.
