//! A live scan never sees a half-submitted job.
//!
//! The executor scans the store with [`JobStore::list`] and reads each
//! listed job's [`JobStore::state`]; a read error stops it. Submits from
//! other processes land while it scans, so a job may appear in `jobs/` only
//! once its `state` file exists. Here one thread submits 200 jobs while
//! another scans in a tight loop, and no read may fail.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use terse_serve::{JobSpec, JobState, JobStore};

const JOBS: usize = 200;

#[test]
fn scans_racing_submits_never_fail() {
    let mut root = std::env::temp_dir();
    root.push(format!("terse_submit_race_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let store = JobStore::open(&root).expect("open store");
    let specs: Vec<JobSpec> = (0..JOBS)
        .map(|i| {
            JobSpec::from_json(&format!(
                r#"{{"id":"race-{i:03}","workload":{{"asm":"halt\n"}},"samples":1}}"#
            ))
            .expect("spec")
        })
        .collect();
    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    let scans = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            start.wait();
            let mut scans = 0usize;
            loop {
                // Read the flag first: the last scan then starts after
                // every submit has returned.
                let last = done.load(Ordering::Acquire);
                for id in store.list().expect("list") {
                    match store.state(&id) {
                        Ok(JobState::Queued) => {}
                        other => panic!("scan {scans}: job `{id}` read {other:?}"),
                    }
                }
                scans += 1;
                if last {
                    return scans;
                }
            }
        });
        start.wait();
        for spec in &specs {
            store.submit(spec).expect("submit");
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader")
    });
    assert!(scans > 1, "the reader never overlapped the submits");
    assert_eq!(store.list().expect("list").len(), JOBS);
    // A duplicate id is still refused, and leaves nothing staged behind.
    assert!(store.submit(&specs[0]).is_err());
    let staged = fs::read_dir(root.join("incoming")).map_or(0, |d| d.count());
    assert_eq!(staged, 0, "staging directories left behind");
    fs::remove_dir_all(&root).expect("clean up");
}
