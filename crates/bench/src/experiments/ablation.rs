//! Ablation A2 (DESIGN.md §4): what lazy loading (§3.3/3.4) is worth.
//! The overlap- and delete-heavy configuration is rerun with eager
//! loading (first refutation loads).
//!
//! A1, the step-regression index (§3.5), is a recorded finding, not an
//! arm: `results/results_final_ablation.txt` holds its last run, which
//! decoded the same pages with the index as without it and was no
//! faster, so the index is no longer stored or probed.

use m4::M4LsmConfig;

use crate::harness::{ExpRow, Harness, Operator};

pub const W: usize = 1000;

/// Variants measured by the ablation.
const VARIANTS: [(&str, M4LsmConfig); 2] = [
    ("LSM-full", M4LsmConfig { lazy_load: true }),
    ("LSM-eager", M4LsmConfig { lazy_load: false }),
];

pub fn run(h: &Harness) -> Vec<ExpRow> {
    let mut rows = Vec::new();
    for dataset in h.datasets.iter().copied() {
        // Overlap + deletes: the setting where both accelerators fire.
        let fx = h.build_store("ablation", dataset, 0.4, 20, 60_000);
        let snap = fx.kv.snapshot("s").expect("snapshot");
        let q = fx.full_query(W);
        let mut reference = None;
        for (name, cfg) in VARIANTS {
            let m = h.time_query(&snap, &q, Operator::LsmConfigured(cfg));
            if let Some(r) = &reference {
                assert!(
                    m.result.equivalent(r),
                    "{name} deviates on {}",
                    dataset.name()
                );
            } else {
                reference = Some(m.result.clone());
            }
            rows.push(ExpRow {
                experiment: "ablation".to_string(),
                dataset: dataset.name().to_string(),
                operator: name.to_string(),
                param: "w".to_string(),
                value: W as f64,
                latency_ms: m.latency_ms,
                chunks_loaded: m.chunks_loaded,
                points_decoded: m.points_decoded,
                timestamps_decoded: m.timestamps_decoded,
            });
        }
        std::fs::remove_dir_all(&fx.dir).ok();
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_loading_loads_at_least_as_much() {
        let h = Harness::new(0.002, 1);
        let rows = run(&h);
        h.cleanup();
        for &dataset in h.datasets.iter() {
            let per: Vec<_> = rows
                .iter()
                .filter(|r| r.dataset == dataset.name())
                .collect();
            let full = per.iter().find(|r| r.operator == "LSM-full").unwrap();
            let eager = per.iter().find(|r| r.operator == "LSM-eager").unwrap();
            assert!(
                eager.points_decoded >= full.points_decoded,
                "{}: lazy loading should never increase full decodes",
                dataset.name()
            );
        }
    }
}
