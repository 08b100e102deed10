//! The versioned mutation plane, end to end on both backends.
//!
//! Exercises the MVCC chunk trees the PR introduces: copy-on-write
//! `commit_update` against a base version, auto-rebase of disjoint
//! writers, retryable `VersionConflict` on overlap, snapshot-pinned reads
//! that stay byte-identical while the head moves, truly concurrent
//! non-overlapping writers on the threaded backend (no lost update), and
//! the reference-counted GC sweep that reclaims pre-image chunks once no
//! live version or open snapshot resolves them.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use bitdew::core::api::BitDewApi;
use bitdew::core::chunks::ChunkDescriptor;
use bitdew::core::simdriver::{SimBitdew, SimNode};
use bitdew::core::versions::{GcReport, Snapshot};
use bitdew::core::{BitdewError, BitdewNode, Data, RuntimeConfig, ServiceContainer};
use bitdew::sim::{topology, Sim, SimDuration, SimTime, Trace};

const CHUNK: u64 = 16 * 1024;
const TOTAL: usize = 8 * CHUNK as usize; // 8 chunks

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 % 251) as u8).collect()
}

fn apply_model(model: &mut [u8], writes: &[(u64, Vec<u8>)]) {
    for (off, bytes) in writes {
        model[*off as usize..*off as usize + bytes.len()].copy_from_slice(bytes);
    }
}

/// Commit `writes` with the documented optimistic retry loop: re-read the
/// head on `VersionConflict` and resubmit. Returns the committed version.
fn commit_retrying<N: BitDewApi + ?Sized>(node: &N, data: &Data, writes: &[(u64, Vec<u8>)]) -> u64 {
    let mut base = node.version_head(data.id).expect("head");
    loop {
        match node.commit_update(data, base, writes) {
            Ok(v) => return v,
            Err(BitdewError::VersionConflict { head, .. }) => base = head,
            Err(e) => panic!("commit failed: {e}"),
        }
    }
}

/// The whole mutation story, generic over the backend: publish → update →
/// snapshot isolation → conflict/rebase → GC. `data` must be a published
/// chunked slot whose content equals `content`.
fn mutation_scenario<N: BitDewApi + ?Sized>(node: &N, data: &Data, content: &[u8]) {
    assert_eq!(node.version_head(data.id).unwrap(), 1, "manifest is v1");
    let mut model = content.to_vec();

    // Pin a snapshot of v1, then move the head under it.
    let snap1 = node.open_snapshot(data).unwrap();
    assert_eq!(snap1.version(), 1);

    // A boundary-spanning write (chunks 1 and 2) commits as v2.
    let w1 = vec![(2 * CHUNK - 100, vec![0xA1u8; 200])];
    let v2 = node.commit_update(data, 1, &w1).unwrap();
    assert_eq!(v2, 2);
    apply_model(&mut model, &w1);
    assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model, "head moved");

    // Disjoint writer still based on v1 (chunk 5): auto-rebase commits v3.
    let w2 = vec![(5 * CHUNK + 10, vec![0xB2u8; 64])];
    let v3 = node.commit_update(data, 1, &w2).unwrap();
    assert_eq!(v3, 3, "disjoint stale-base writer rebased onto the head");
    apply_model(&mut model, &w2);

    // Overlapping writer based on v1 (chunk 1 again): retryable conflict.
    let w3 = vec![(CHUNK + 5, vec![0xC3u8; 32])];
    match node.commit_update(data, 1, &w3) {
        Err(BitdewError::VersionConflict { head, attempted }) => {
            assert_eq!(head, 3);
            assert_eq!(attempted, 1);
        }
        other => panic!("expected VersionConflict, got {other:?}"),
    }
    let v4 = commit_retrying(node, data, &w3);
    assert_eq!(v4, 4);
    apply_model(&mut model, &w3);
    assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model);

    // Snapshot isolation: snap1 still reads the original bytes, while a
    // fresh snapshot sees the head.
    assert_eq!(
        node.get_range_at(data, &snap1, 0, TOTAL).unwrap(),
        content,
        "v1 snapshot is byte-identical under 3 committed updates"
    );
    let snap4 = node.open_snapshot(data).unwrap();
    assert_eq!(snap4.version(), 4);
    assert_eq!(node.get_range_at(data, &snap4, 0, TOTAL).unwrap(), model);

    // The chain is linear and fully materializable.
    assert_eq!(node.version_head(data.id).unwrap(), 4);
    for v in 1..=4u64 {
        let row = node
            .version_manifest(data.id, v)
            .unwrap()
            .unwrap_or_else(|| {
                panic!("version {v} resolvable");
            });
        assert_eq!(row.version, v);
        assert!(row.parent < v);
    }
    assert!(node.version_manifest(data.id, 9).unwrap().is_none());

    // GC with snap1 open keeps its pre-images alive…
    let kept = node.gc_versions(data).unwrap();
    assert!(kept.live_versions.contains(&1));
    assert_eq!(
        node.get_range_at(data, &snap1, 0, TOTAL).unwrap(),
        content,
        "pinned snapshot survives a sweep"
    );
    // …dropping every snapshot frees everything but the head.
    drop(snap1);
    drop(snap4);
    let report = node.gc_versions(data).unwrap();
    assert_eq!(report.live_versions, vec![4]);
    assert!(report.chunks_reclaimed > 0, "unreachable pre-images freed");
    let again = node.gc_versions(data).unwrap();
    assert_eq!(again.chunks_reclaimed, 0, "sweep converged");
    assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model);
}

#[test]
fn threaded_mutation_snapshots_and_gc() {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(TOTAL);
    let data = client.create_slot("mvcc-blob", TOTAL as u64).unwrap();
    client.put_chunked(&data, &content, CHUNK).unwrap();
    mutation_scenario(client.as_ref(), &data, &content);
}

#[test]
fn sim_mutation_snapshots_and_gc() {
    let topo = topology::gdx_cluster(1);
    let sim = Rc::new(RefCell::new(Sim::new(51)));
    let driver = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let node = SimNode::attach_client(&sim, &driver, topo.workers[0], SimTime::ZERO);
    let content = payload(TOTAL);
    let data = node.create_slot("mvcc-blob", TOTAL as u64).unwrap();
    node.put_chunked(&data, &content, CHUNK).unwrap();
    mutation_scenario(&node, &data, &content);
}

#[test]
fn threaded_concurrent_disjoint_writers_lose_no_update() {
    // Four writers, each owning two chunks, hammer the same datum
    // concurrently from the stalest possible base. Every commit must land
    // (auto-rebase, never a lost update) and the final bytes must equal
    // the serial reference model.
    const WRITERS: usize = 4;
    const ROUNDS: u64 = 8;
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(TOTAL);
    let data = client.create_slot("hammered", TOTAL as u64).unwrap();
    client.put_chunked(&data, &content, CHUNK).unwrap();

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let node = BitdewNode::new_client(Arc::clone(&c));
        let data = data.clone();
        handles.push(std::thread::spawn(move || {
            // Writer w owns chunks [2w, 2w+1]: all writers disjoint.
            let base_off = (2 * w) as u64 * CHUNK;
            for round in 0..ROUNDS {
                let fill = (w * 16 + round as usize) as u8;
                let writes = vec![
                    (base_off + round * 7, vec![fill; 512]),
                    (base_off + CHUNK + round * 3, vec![fill ^ 0xFF; 256]),
                ];
                commit_retrying(node.as_ref(), &data, &writes);
            }
        }));
    }
    for h in handles {
        h.join().expect("writer thread");
    }

    // Every commit landed: the head advanced once per commit.
    assert_eq!(
        client.version_head(data.id).unwrap(),
        1 + WRITERS as u64 * ROUNDS,
        "no lost update"
    );
    // The final bytes equal the serial model (disjoint writes commute).
    let mut model = content.clone();
    for w in 0..WRITERS {
        let base_off = (2 * w) as u64 * CHUNK;
        for round in 0..ROUNDS {
            let fill = (w * 16 + round as usize) as u8;
            apply_model(
                &mut model,
                &[
                    (base_off + round * 7, vec![fill; 512]),
                    (base_off + CHUNK + round * 3, vec![fill ^ 0xFF; 256]),
                ],
            );
        }
    }
    assert_eq!(client.get_range(&data, 0, TOTAL).unwrap(), model);

    // Churn left pre-images behind; one sweep drains them all.
    let report = client.gc_versions(&data).unwrap();
    assert!(report.chunks_reclaimed > 0);
    assert_eq!(client.gc_versions(&data).unwrap().chunks_reclaimed, 0);
}

#[test]
fn handle_surface_exposes_versions_without_node_internals() {
    // Satellite: manifest, chunk completion, versions, snapshots and the
    // VersionUpdate builder all reachable from the DataHandle alone.
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let session = bitdew::core::Session::new(client);
    let content = payload(TOTAL);
    let handle = session.create_slot("held", TOTAL as u64).unwrap();
    session
        .node()
        .put_chunked(handle.data(), &content, CHUNK)
        .unwrap();

    let manifest = handle.manifest().unwrap().expect("chunked");
    assert_eq!(manifest.chunk_count(), 8);
    let (held, total) = handle.chunk_completion().unwrap().expect("chunked");
    assert_eq!(total, 8);
    assert!(held <= total);
    assert_eq!(handle.version().unwrap(), 1);

    let snap = handle.snapshot().unwrap();
    let v2 = handle
        .update()
        .unwrap()
        .write(0, vec![7u8; 64])
        .write(3 * CHUNK, vec![9u8; 64])
        .commit()
        .unwrap();
    assert_eq!(v2, 2);
    assert_eq!(handle.version().unwrap(), 2);
    assert_eq!(handle.read_at(&snap, 0, 64).unwrap(), &content[..64]);

    // A stale builder conflicts; rebuilding from the head commits.
    let stale = handle.update_from(1).write(10, vec![1u8; 8]);
    assert!(matches!(
        stale.commit(),
        Err(BitdewError::VersionConflict {
            head: 2,
            attempted: 1
        })
    ));
    let v3 = handle
        .update()
        .unwrap()
        .write(10, vec![1u8; 8])
        .commit()
        .unwrap();
    assert_eq!(v3, 3);

    drop(snap);
    assert!(handle.gc_versions().unwrap().chunks_reclaimed > 0);
}

// ---------------------------------------------------------------------------
// Property: random write batches — commit-vs-model equivalence plus
// snapshot consistency on each backend, and row-for-row, report-for-report
// agreement between the two.
// ---------------------------------------------------------------------------

/// A batch of 1–3 in-range writes, each a filled run of 1–3000 bytes.
fn write_batches() -> impl Strategy<Value = Vec<Vec<(u64, Vec<u8>)>>> {
    let write = (0u64..(TOTAL as u64 - 3000), 1usize..3000, any::<u8>())
        .prop_map(|(off, len, fill)| (off, vec![fill; len]));
    proptest::collection::vec(proptest::collection::vec(write, 1..4), 1..6)
}

/// Every version's row (1 through the head) as `(version, parent,
/// changed descriptors)` — the datum id differs per backend — and every
/// GC report of one [`random_batches_scenario`] run, in order.
type PlaneTrace = (Vec<(u64, u64, Vec<ChunkDescriptor>)>, Vec<GcReport>);

/// Apply every batch through `commit_update` (with retry) against a model,
/// pinning a snapshot before batch `snap_at`; check head reads, snapshot
/// stability, and a convergent GC sweep.
fn random_batches_scenario<N: BitDewApi + ?Sized>(
    node: &N,
    data: &Data,
    content: &[u8],
    batches: &[Vec<(u64, Vec<u8>)>],
    snap_at: usize,
) -> PlaneTrace {
    let mut reports = Vec::new();
    let mut model = content.to_vec();
    let mut pinned: Option<(Snapshot, Vec<u8>)> = None;
    for (i, batch) in batches.iter().enumerate() {
        if i == snap_at % batches.len() {
            pinned = Some((node.open_snapshot(data).unwrap(), model.clone()));
        }
        commit_retrying(node, data, batch);
        apply_model(&mut model, batch);
        assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model);
    }
    if let Some((snap, expect)) = &pinned {
        assert_eq!(&node.get_range_at(data, snap, 0, TOTAL).unwrap(), expect);
        // The sweep with the pin held must not disturb the snapshot.
        reports.push(node.gc_versions(data).unwrap());
        assert_eq!(&node.get_range_at(data, snap, 0, TOTAL).unwrap(), expect);
    }
    drop(pinned);
    reports.push(node.gc_versions(data).unwrap());
    let converged = node.gc_versions(data).unwrap();
    assert_eq!(converged.chunks_reclaimed, 0, "sweep converged");
    reports.push(converged);
    assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model);
    let rows = (1..=node.version_head(data.id).unwrap())
        .map(|v| {
            let row = node.version_manifest(data.id, v).unwrap().expect("row");
            (row.version, row.parent, row.changed)
        })
        .collect();
    (rows, reports)
}

fn threaded_batches(batches: &[Vec<(u64, Vec<u8>)>], snap_at: usize) -> PlaneTrace {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(TOTAL);
    let data = client.create_slot("prop-blob", TOTAL as u64).unwrap();
    client.put_chunked(&data, &content, CHUNK).unwrap();
    random_batches_scenario(client.as_ref(), &data, &content, batches, snap_at)
}

fn sim_batches(batches: &[Vec<(u64, Vec<u8>)>], snap_at: usize) -> PlaneTrace {
    let topo = topology::gdx_cluster(1);
    let sim = Rc::new(RefCell::new(Sim::new(52)));
    let driver = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let node = SimNode::attach_client(&sim, &driver, topo.workers[0], SimTime::ZERO);
    let content = payload(TOTAL);
    let data = node.create_slot("prop-blob", TOTAL as u64).unwrap();
    node.put_chunked(&data, &content, CHUNK).unwrap();
    random_batches_scenario(&node, &data, &content, batches, snap_at)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    #[test]
    fn prop_threaded_commits_match_model(batches in write_batches(), snap_at in 0usize..6) {
        threaded_batches(&batches, snap_at);
    }

    #[test]
    fn prop_sim_commits_match_model(batches in write_batches(), snap_at in 0usize..6) {
        sim_batches(&batches, snap_at);
    }

    #[test]
    fn prop_backends_agree_on_rows_and_gc(batches in write_batches(), snap_at in 0usize..6) {
        let (threaded_rows, threaded_gc) = threaded_batches(&batches, snap_at);
        let (sim_rows, sim_gc) = sim_batches(&batches, snap_at);
        prop_assert_eq!(threaded_rows, sim_rows);
        prop_assert_eq!(threaded_gc, sim_gc);
    }
}
