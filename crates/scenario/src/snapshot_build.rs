//! Building snapshot files from scenario specs: the write side of
//! [`TopologySpec::Snapshot`].
//!
//! [`build_snapshot`] draws the realization-0 topology of a single-curve static spec on
//! the workspace's standard stream — `stream_rng(seed, label_salt(curve label), 0)` —
//! in frozen form, and wraps it as a [`SnapshotFile`] whose provenance records the curve
//! label, `m`, cutoff, seed, and the stream's next `u64` (the `sweep_seed`). Because
//! that is byte for byte the state an inline engine-batched sweep would reach, a
//! scenario run against the saved file reproduces the inline run exactly; see
//! [`crate::ScenarioRunner`] and `docs/FORMATS.md`.
//!
//! This is the library behind `sfo snapshot build`; it lives in `sfo-scenario` so tests
//! and other frontends can build snapshots without shelling out.

use crate::spec::{DynamicsSpec, ScenarioSpec, TopologySpec};
use crate::ScenarioError;
use rand::RngCore;
use sfo_graph::snapshot::{Provenance, SnapshotFile, SnapshotOrigin};
use sfo_search::experiment::{label_salt, stream_rng};

/// Generates the realization-0 topology of `spec` and packs it as a snapshot with
/// provenance, ready to [`SnapshotFile::save`].
///
/// `shards > 1` also records the shard count, clamped to the node count as
/// `sfo_engine::ShardedCsr` clamps it; the stored topology is identical either way, and
/// a scenario run against the file applies its own `sweep.shard_count` regardless.
///
/// # Errors
///
/// Returns [`ScenarioError::InvalidSpec`] when `spec` is not a static scenario with
/// exactly one inline topology curve, and [`ScenarioError::Topology`] when generation
/// itself fails.
pub fn build_snapshot(spec: &ScenarioSpec, shards: usize) -> Result<SnapshotFile, ScenarioError> {
    if !matches!(spec.dynamics, DynamicsSpec::Static) {
        return Err(ScenarioError::invalid(
            "snapshot build needs a static scenario (the topology section is what gets built)",
        ));
    }
    let curves = spec.expanded_topologies();
    let curve = match curves.as_slice() {
        [curve] => curve,
        [] => {
            return Err(ScenarioError::invalid(
                "snapshot build needs a \"topology\" section",
            ))
        }
        many => {
            return Err(ScenarioError::invalid(format!(
                "snapshot build needs exactly one topology; this spec expands to {} \
                 curves — drop the \"stubs\"/\"cutoffs\" sweep axes or split the spec",
                many.len()
            )))
        }
    };
    if let TopologySpec::Snapshot { path } = curve {
        return Err(ScenarioError::invalid(format!(
            "this spec already reads its topology from the snapshot {path}"
        )));
    }
    curve.validate()?;

    // The exact stream discipline of an inline (curve, realization 0) sweep task:
    // generate on the realization stream, then one u64 draw becomes the batch seed.
    // `curve_label` overrides both the salt and the stored label, exactly as it does
    // in an inline run.
    let label = spec.curve_label.clone().unwrap_or_else(|| curve.label());
    let mut rng = stream_rng(spec.seed, label_salt(&label), 0);
    let csr = curve.build()?.generate_frozen(&mut rng)?;
    let sweep_seed = rng.next_u64();

    let provenance = Provenance {
        label,
        m: curve.m() as u64,
        cutoff: curve.cutoff().map(|k_c| k_c as u64),
        seed: spec.seed,
        realization: 0,
        sweep_seed,
        origin: Some(SnapshotOrigin::Generator),
    };
    Ok(SnapshotFile {
        shards: (shards > 1).then(|| shards.min(csr.node_count())),
        csr,
        provenance: Some(provenance),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SearchSpec, SweepSpec};
    use sfo_sim::simulation::SimulationConfig;

    fn base_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::sweep(
            "build-test",
            TopologySpec::Pa {
                nodes: 200,
                m: 2,
                cutoff: Some(10),
            },
            SearchSpec::Flooding,
            SweepSpec::single(vec![1, 2], 5),
            77,
            1,
        );
        spec.sweep.as_mut().unwrap().batch = true;
        spec
    }

    #[test]
    fn build_records_the_inline_stream_state() {
        let file = build_snapshot(&base_spec(), 0).unwrap();
        let provenance = file.provenance.as_ref().unwrap();
        assert_eq!(provenance.label, "PA, m=2, k_c=10");
        assert_eq!(provenance.m, 2);
        assert_eq!(provenance.cutoff, Some(10));
        assert_eq!(provenance.seed, 77);
        assert_eq!(provenance.realization, 0);
        assert_eq!(file.csr.node_count(), 200);
        assert!(file.shards.is_none());

        // Reproduce by hand: the topology and sweep seed come off one stream.
        let mut rng = stream_rng(77, label_salt("PA, m=2, k_c=10"), 0);
        let graph = base_spec()
            .topology
            .unwrap()
            .build()
            .unwrap()
            .generate(&mut rng)
            .unwrap();
        assert_eq!(file.csr, graph.freeze());
        assert_eq!(provenance.sweep_seed, rng.next_u64());
    }

    #[test]
    fn build_with_shards_records_the_clamped_shard_count() {
        let csr = build_snapshot(&base_spec(), 0).unwrap().csr;
        for (asked, stored) in [(1usize, None), (4, Some(4)), (500, Some(200))] {
            let file = build_snapshot(&base_spec(), asked).unwrap();
            assert_eq!(file.shards, stored, "--shards {asked}");
            assert_eq!(file.csr, csr, "--shards {asked}");
        }
    }

    #[test]
    fn non_static_and_multi_curve_specs_are_rejected() {
        let churn = ScenarioSpec::churn("churn", SimulationConfig::small(), 1, 1);
        assert!(matches!(
            build_snapshot(&churn, 0),
            Err(ScenarioError::InvalidSpec { .. })
        ));

        let mut grid = base_spec();
        grid.sweep.as_mut().unwrap().stubs = vec![1, 2];
        assert!(matches!(
            build_snapshot(&grid, 0),
            Err(ScenarioError::InvalidSpec { .. })
        ));
    }
}
