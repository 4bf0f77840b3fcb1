//! End-to-end crash durability at the workspace level: a mining
//! resource's journal store spills as a recovery image to a real file
//! (the CI artifact, next to the chaos trace), reads back, and restores
//! the resource to its pre-crash solutions.

use gridmine::prelude::*;
use gridmine::secure::resource::wire_grid;

/// Drives a vector of resources synchronously to quiescence with
/// interleaved candidate-generation rounds (the end_to_end idiom).
fn drive<C: HomCipher>(resources: &mut [SecureResource<C>], rounds: usize) {
    for _ in 0..rounds {
        for phase in 0..2 {
            let mut queue: Vec<WireMsg<C>> = Vec::new();
            for r in resources.iter_mut() {
                if phase == 0 {
                    queue.extend(r.step(usize::MAX));
                } else {
                    queue.extend(r.generate_candidates());
                }
            }
            let mut hops = 0;
            while !queue.is_empty() {
                hops += 1;
                assert!(hops < 50_000, "no quiescence");
                let mut next = Vec::new();
                for msg in queue {
                    let to = msg.to;
                    next.extend(resources[to].on_receive(&msg));
                }
                queue = next;
            }
        }
    }
    for r in resources.iter_mut() {
        r.refresh_outputs();
    }
}

fn uniform_dbs(n: u64) -> Vec<Database> {
    (0..n)
        .map(|u| {
            Database::from_transactions(
                (0..40)
                    .map(|j| {
                        let id = u * 40 + j;
                        if j % 4 == 0 {
                            Transaction::of(id, &[3])
                        } else {
                            Transaction::of(id, &[1, 2])
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn recovery_journal_spills_to_disk_and_restores_the_resource() {
    let keys = GridKeys::<MockCipher>::mock(17);
    let generator = CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let items = vec![Item(1), Item(2), Item(3)];
    let n = 4usize;
    let mut grid: Vec<SecureResource<MockCipher>> = uniform_dbs(n as u64)
        .into_iter()
        .enumerate()
        .map(|(u, db)| {
            let mut neighbors = Vec::new();
            if u > 0 {
                neighbors.push(u - 1);
            }
            if u + 1 < n {
                neighbors.push(u + 1);
            }
            SecureResource::new(u, &keys, neighbors, db, 1, generator, &items, 41 + u as u64)
        })
        .collect();
    wire_grid(&mut grid);
    for r in grid.iter_mut() {
        r.arm_recovery();
    }

    drive(&mut grid, 6);
    for r in grid.iter_mut() {
        r.take_checkpoint(6);
    }
    let before = grid[2].interim();
    assert!(!before.is_empty(), "the grid mined something to lose");

    // Crash: volatile state dies; the journal is what survived on disk.
    grid[2].crash_wipe();
    assert_eq!(grid[2].candidate_count(), 0, "the wipe actually lost the working set");
    let bytes = grid[2].encode_recovery_image().expect("armed resource has an image");

    // Spill the image to the artifact path CI archives (written to a
    // predictable location, like the chaos trace in end_to_end.rs).
    let path = std::path::Path::new("target/gridmine-obs/recovery_journal.image");
    let (owner, _, _) = gridmine::recovery::decode_image(&bytes).expect("image decodes");
    assert_eq!(owner, 2, "the image names its owner");
    gridmine::store::atomic_write_file(path, &bytes).expect("artifact written");
    let from_disk = std::fs::read(path).expect("artifact reads back");
    assert_eq!(from_disk, bytes, "the file round trip is lossless");

    // Restore from the on-disk copy and verify the resource resumed.
    assert!(grid[2].restore_from_image(&from_disk), "verified restore succeeds");
    grid[2].refresh_outputs();
    assert_eq!(grid[2].interim(), before, "restored resource resumes where it left off");
    assert!(grid[2].verdict().is_none(), "an honest journal raises no verdict");

    // The grid keeps mining correctly after the restore.
    drive(&mut grid, 2);
    let truth = correct_rules(
        &Database::union_of(uniform_dbs(n as u64).iter()),
        &AprioriConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)),
    );
    for r in &grid {
        assert_eq!(r.interim(), truth, "resource {} diverged after the restore", r.id());
    }
}

#[test]
fn tampered_on_disk_image_is_rejected_not_applied() {
    let keys = GridKeys::<MockCipher>::mock(18);
    let generator = CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let items = vec![Item(1), Item(2)];
    let mut grid: Vec<SecureResource<MockCipher>> = uniform_dbs(3)
        .into_iter()
        .enumerate()
        .map(|(u, db)| {
            let mut neighbors = Vec::new();
            if u > 0 {
                neighbors.push(u - 1);
            }
            if u + 1 < 3 {
                neighbors.push(u + 1);
            }
            SecureResource::new(u, &keys, neighbors, db, 1, generator, &items, 61 + u as u64)
        })
        .collect();
    wire_grid(&mut grid);
    for r in grid.iter_mut() {
        r.arm_recovery();
    }
    drive(&mut grid, 4);

    // Forge the journal while the resource is down, then try to restore.
    grid[1].corrupt_recovery_journal();
    grid[1].crash_wipe();
    let bytes = grid[1].encode_recovery_image().expect("image still encodes");
    assert!(!grid[1].restore_from_image(&bytes), "forged image must be refused");
    assert_eq!(
        grid[1].verdict(),
        Some(Verdict::MaliciousResource(1)),
        "the forgery surfaces as a verdict, not a panic"
    );
}

/// A 3-resource path grid, journalled, mined, checkpointed and mined a
/// little more (so the journal has both a snapshot and a WAL tail), with
/// resource 1 crashed. Partitions differ in their {3} share, so the two
/// journals differ. Returns the grid and resource 0's and 1's images.
fn crashed_grid() -> (Vec<SecureResource<MockCipher>>, Vec<u8>, Vec<u8>) {
    let keys = GridKeys::<MockCipher>::mock(19);
    let generator = CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let items = vec![Item(1), Item(2), Item(3)];
    let dbs = (0..3u64).map(|u| {
        Database::from_transactions(
            (0..40)
                .map(|j| {
                    let items: &[u32] = if j % (3 + u) == 0 { &[3] } else { &[1, 2] };
                    Transaction::of(u * 40 + j, items)
                })
                .collect(),
        )
    });
    let mut grid: Vec<SecureResource<MockCipher>> = dbs
        .enumerate()
        .map(|(u, db)| {
            let neighbors = [u.checked_sub(1), Some(u + 1).filter(|&v| v < 3)];
            let neighbors = neighbors.into_iter().flatten().collect();
            SecureResource::new(u, &keys, neighbors, db, 1, generator, &items, 71 + u as u64)
        })
        .collect();
    wire_grid(&mut grid);
    for r in grid.iter_mut() {
        r.arm_recovery();
    }
    drive(&mut grid, 2);
    for r in grid.iter_mut() {
        r.take_checkpoint(2);
    }
    drive(&mut grid, 2);
    grid[1].crash_wipe();
    let other = grid[0].encode_recovery_image().expect("armed");
    let own = grid[1].encode_recovery_image().expect("armed");
    (grid, other, own)
}

/// The journal's `(snapshot, WAL)` file names.
fn journal_files(files: &gridmine::store::MemBackend) -> (String, String) {
    use gridmine::store::Backend;
    let names = files.clone().list().expect("in-memory list");
    let wal = names.iter().find(|n| n.starts_with("wal-")).expect("a WAL").clone();
    let snap = names.iter().find(|n| n.starts_with("snap-")).expect("a snapshot").clone();
    (snap, wal)
}

/// Splits a segment into whole records (`len:u32 seq:u64 digest:u64`
/// header, then `len` payload bytes).
fn records(segment: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < segment.len() {
        let len = u32::from_le_bytes(segment[pos..pos + 4].try_into().unwrap()) as usize;
        out.push(segment[pos..pos + 20 + len].to_vec());
        pos += 20 + len;
    }
    out
}

#[test]
fn every_forged_image_is_rejected_with_exactly_one_verdict() {
    use gridmine::recovery::{decode_image, encode_image};

    /// Rewrites the image's WAL through `edit`, keeping owner and head.
    fn with_wal(image: &[u8], edit: impl Fn(&mut Vec<Vec<u8>>)) -> Vec<u8> {
        let (owner, head, mut files) = decode_image(image).expect("honest image decodes");
        let (_, wal) = journal_files(&files);
        let mut recs = records(files.bytes(&wal).expect("wal bytes"));
        assert!(recs.len() >= 3, "the fixture needs an anchor and two puts");
        edit(&mut recs);
        *files.bytes_mut(&wal) = recs.concat();
        encode_image(owner, head, &files)
    }

    let (_, other, honest) = crashed_grid();
    // (forgery, the screen that must name it, forged image bytes)
    let forgeries: Vec<(&str, &str, Vec<u8>)> = vec![
        (
            "payload bit flip",
            "digest-mismatch",
            with_wal(&honest, |recs| {
                let last = recs.last_mut().expect("records");
                last[20] ^= 0x40;
            }),
        ),
        ("reordered records", "sequence-skew", with_wal(&honest, |recs| recs.swap(1, 2))),
        (
            "front truncation",
            "sequence-skew",
            with_wal(&honest, |recs| {
                recs.remove(0);
            }),
        ),
        (
            "whole-record tail truncation",
            "head mismatch",
            with_wal(&honest, |recs| {
                recs.pop();
            }),
        ),
        ("snapshot substitution", "anchor-mismatch", {
            let (owner, head, mut files) = decode_image(&honest).expect("decodes");
            let (_, _, theirs) = decode_image(&other).expect("decodes");
            let (snap, _) = journal_files(&files);
            let substitute = theirs.bytes(&snap).expect("same generation").to_vec();
            assert_ne!(files.bytes(&snap), Some(&substitute[..]), "a different snapshot");
            *files.bytes_mut(&snap) = substitute;
            encode_image(owner, head, &files)
        }),
        ("foreign owner", "belongs to resource 0", {
            let (_, head, files) = decode_image(&honest).expect("decodes");
            encode_image(0, head, &files)
        }),
        ("garbage bytes", "undecodable recovery image", b"not a recovery image".to_vec()),
    ];

    for (label, screen, forged) in forgeries {
        let (mut grid, _, _) = crashed_grid();
        let rec = MemoryRecorder::shared();
        grid[1].set_recorder(rec.clone());
        assert!(!grid[1].restore_from_image(&forged), "{label}: forgery was applied");
        assert_eq!(grid[1].recovery_rejected(), 1, "{label}");
        let reasons: Vec<String> = rec
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                Event::RecoveryRejected { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(reasons.len(), 1, "{label}: {reasons:?}");
        assert!(reasons[0].contains(screen), "{label}: rejected as {:?}", reasons[0]);
        assert_eq!(rec.count_of(EventKind::VerdictIssued), 1, "{label}");
        assert_eq!(grid[1].verdict(), Some(Verdict::MaliciousResource(1)), "{label}");
        assert_eq!(grid[1].candidate_count(), 0, "{label}: nothing was restored");
    }

    // The untouched image restores: every rejection above is the forgery's.
    let (mut grid, _, _) = crashed_grid();
    assert!(grid[1].restore_from_image(&honest), "the honest image restores");
}
