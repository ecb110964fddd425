//! `Framework::train_model` honours `FrameworkBuilder::threads`: training
//! runs on the framework's own pool, so a `threads(1)` framework trains on
//! the calling thread alone — even when the caller sits inside a wider
//! pool, as a job-server worker does.
//!
//! Kept in its own test binary: the check counts the process's OS threads
//! while training runs, so no other test may spawn threads meanwhile.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;
use terse::{Framework, Workload};
use terse_isa::Cfg;

/// The process's live OS thread count (`Threads:` of `/proc/self/status`).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn single_thread_framework_trains_without_worker_threads() {
    let Some(_) = os_threads() else {
        eprintln!("no /proc/self/status on this platform; skipping");
        return;
    };
    let w = Workload::from_asm(
        "threads-kernel",
        r"
            ld   r1, r0, 0
            li   r6, 0x00FFFFFF
        loop:
            add  r2, r2, r6
            mul  r3, r1, r2
            xor  r4, r3, r2
            addi r1, r1, -1
            bne  r1, r0, loop
            halt
        ",
    )
    .expect("assembles")
    .with_input(|m| m.store(0, 9).expect("store"))
    .with_input(|m| m.store(0, 14).expect("store"));
    let fw = Framework::builder()
        .samples(2)
        .threads(1)
        .build()
        .expect("framework");
    let cfg = Cfg::from_program(w.program());
    let profiles = fw.profile_workload(&w, &cfg).expect("profiles");

    // A sampler thread records the peak thread count while training runs.
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let (baseline, trained) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(os_threads().unwrap_or(0), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        // The sampler is live before the baseline is read.
        std::thread::sleep(Duration::from_millis(5));
        let baseline = os_threads().expect("thread count");
        let wide = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .expect("pool");
        let trained = wide.install(|| fw.train_model(&w, &cfg, &profiles));
        stop.store(true, Ordering::Relaxed);
        (baseline, trained)
    });
    trained.expect("model");
    let peak = peak.into_inner();
    assert!(
        peak <= baseline,
        "threads(1) training spawned workers: {peak} threads at peak vs {baseline} before"
    );
}
