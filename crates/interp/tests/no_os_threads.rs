//! Virtual threads are not OS threads: `run_threads_virtual` resumes
//! its workers on the calling thread and spawns nothing. (The only
//! test of its binary, so no other test's thread comes or goes while
//! it counts.)

use interp::{ExecMode, Options};

const SRC: &str = r#"
    global c;
    fn work(iters) {
        let i = 0;
        while (i < iters) {
            atomic { c = c + 1; nops(20); }
            i = i + 1;
        }
        return c;
    }
"#;

/// `Threads:` of `/proc/self/status`.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let count = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    count.trim().parse().ok()
}

#[test]
fn eight_virtual_threads_run_on_the_calling_thread() {
    let Some(before) = os_threads() else {
        return; // no procfs here: nothing to count
    };
    let m = interp::machine_for(SRC, 3, ExecMode::MultiGrain, Options::default())
        .expect("fixture compiles");
    // The argument callback runs inside the call, once per thread.
    let during = std::sync::Mutex::new(Vec::new());
    let (results, _) = m
        .run_threads_virtual("work", 8, |_| {
            during.lock().unwrap().push(os_threads());
            vec![50]
        })
        .expect("the run completes");
    assert_eq!(results.iter().max(), Some(&400));
    assert_eq!(during.into_inner().unwrap(), vec![Some(before); 8]);
    assert_eq!(os_threads(), Some(before));
}
