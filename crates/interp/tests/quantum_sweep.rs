//! The resumption points of `Worker::resume`, pinned where they are
//! densest. Every fingerprint below — per-thread results (or the typed
//! error), makespan, trace digest — was captured from the build whose
//! virtual threads were OS threads handing a turn to each other; the
//! driver loop that replaced them must reproduce each byte. At quantum
//! 1 every tick is a scheduling point, so a yield that resumes one
//! sub-step late (after the sentinel check instead of before it, at
//! the next instruction instead of mid-`Assign`) reorders two shared
//! operations and fails here first.

use interp::{ExecMode, FaultPlan, Machine, Options, PolicyKind, SchedConfig};
use std::sync::Arc;
use workloads::{micro, stamp, Contention, RunSpec};

const THREADS: usize = 8;
const DEFAULT_QUANTUM: u64 = 128;

/// `one_runner.rs`'s fixture: a reader/writer-contended pair of cells
/// plus a racy cell updated right after each release.
const SRC: &str = r#"
    global a, b, r;
    fn work(iters, tid) {
        let i = 0;
        let seen = 0;
        while (i < iters) {
            if ((i + tid) % 3 == 0) {
                atomic { a = a + 1; nops(40); b = b + a; }
            } else {
                atomic { seen = seen + a + b; nops(6); }
            }
            r = r * 3 + tid;
            seen = seen + r % 1000;
            nops(tid);
            i = i + 1;
        }
        return seen;
    }
"#;

/// Calls inside sections: a heapified (address-taken) parameter and
/// local, a callee that opens a nested section, and call results
/// written into globals — so under STM the parameter stores, the
/// `ret` read and the write of the returned value into the caller's
/// destination are all transactional accesses, each a tick.
const CALLS: &str = r#"
    global g, h;
    fn bump(p, d) {
        let dd = &d;
        *p = *p + *dd;
        return *p;
    }
    fn mix(x) {
        let y = x;
        let q = &y;
        atomic { h = h + bump(q, g); }
        return y + h % 7;
    }
    fn work(iters, tid) {
        let i = 0;
        let acc = 0;
        while (i < iters) {
            atomic { g = g + 1; acc = acc + mix(tid); nops(3); g = mix(g) % 1000; }
            acc = acc + mix(i);
            i = i + 1;
        }
        return acc;
    }
"#;

/// Stall + wake-up delay + spurious abort, and the same plus a panic.
/// (A worker's fault stream is a function of the plan's seed and its
/// thread id, and the init phase runs as thread 0 of the same machine:
/// this seed lets init and some workers of every fixture live, and
/// kills at least one worker.)
fn chaos(panic: bool) -> FaultPlan {
    let plan = FaultPlan::new(0xC4A0B)
        .with_stalls(120, 300)
        .with_wakeup_delays(200, 170)
        .with_stm_aborts(25);
    if panic {
        plan.with_panics(1, 1)
    } else {
        plan
    }
}

struct Case {
    spec: RunSpec,
    k: usize,
    mode: ExecMode,
    policy: Option<PolicyKind>,
    /// The worker takes its thread id as a second argument.
    tid_arg: bool,
    /// Init runs no atomic section, so a panic plan cannot kill it.
    /// (`th` builds its table through `put`: any panic rate that can
    /// fire at all fires there first.)
    panic_free_init: bool,
    /// `Options::stm_abort_budget`: 2 sends contended sections through
    /// the irrevocable fallback's retry loop.
    abort_budget: u64,
}

fn cases() -> Vec<(&'static str, Case)> {
    let src_case = |source: &str, mode, policy| Case {
        spec: RunSpec {
            name: "src".into(),
            source: source.into(),
            init: ("work", vec![0, 0]),
            worker: ("work", vec![10]),
            check: None,
            heap_cells: 1 << 12,
        },
        k: 3,
        mode,
        policy,
        tid_arg: true,
        panic_free_init: true,
        abort_budget: 1024,
    };
    let (mg, seh, rbatch) = (
        ExecMode::MultiGrain,
        PolicyKind::ShortestExpectedHold,
        PolicyKind::ReaderBatch,
    );
    vec![
        (
            "th",
            Case {
                spec: micro::th(Contention::High, 60, 20),
                k: 9,
                mode: ExecMode::MultiGrain,
                policy: None,
                tid_arg: false,
                panic_free_init: false,
                abort_budget: 1024,
            },
        ),
        (
            "kmeans",
            Case {
                spec: stamp::kmeans(40, 20),
                k: 9,
                mode: ExecMode::Stm,
                policy: None,
                tid_arg: false,
                panic_free_init: true,
                abort_budget: 1024,
            },
        ),
        ("src", src_case(SRC, mg, None)),
        ("src-seh", src_case(SRC, mg, Some(seh))),
        ("src-rbatch", src_case(SRC, mg, Some(rbatch))),
        ("src-global", src_case(SRC, ExecMode::Global, None)),
        ("src-stm", src_case(SRC, ExecMode::Stm, None)),
        (
            "src-stm-budget2",
            Case {
                abort_budget: 2,
                ..src_case(SRC, ExecMode::Stm, None)
            },
        ),
        ("calls", src_case(CALLS, mg, None)),
        ("calls-stm", src_case(CALLS, ExecMode::Stm, None)),
    ]
}

/// Results, makespan, the checker's verdict, STM commits / aborts /
/// fallbacks and the trace digest of one traced 8-thread virtual run;
/// a run that dies reports its typed error and the last clock it
/// reached in place of the results and makespan it never returned.
fn fingerprint(case: &Case, quantum: u64, faults: Option<FaultPlan>) -> String {
    let (program, _analysis, transformed) =
        lockinfer::compile_with_locks(&case.spec.source, case.k).expect("fixture compiles");
    let pt = Arc::new(pointsto::PointsTo::analyze(&program));
    let opts = Options {
        heap_cells: case.spec.heap_cells,
        quantum,
        faults,
        stm_abort_budget: case.abort_budget,
        sched: case.policy.map(|policy| SchedConfig {
            policy,
            expected_hold: vec![(0, 60), (1, 12)],
            aging: 0,
        }),
        trace: Some(trace::TraceConfig::default()),
        ..Options::default()
    };
    let m = Machine::new(Arc::new(transformed), pt, case.mode, opts);
    m.run_named(case.spec.init.0, &case.spec.init.1)
        .expect("no fault fires during init");
    let outcome = m.run_threads_virtual(case.spec.worker.0, THREADS, |tid| {
        let mut argv = case.spec.worker.1.clone();
        if case.tid_arg {
            argv.push(tid as i64);
        }
        argv
    });
    let check = case.spec.check.map(|chk| m.run_named(chk, &[]));
    let stm = m.stm_stats();
    let trace = m.take_trace().expect("tracing was enabled");
    let last_clock = trace.events.iter().map(|e| e.clock).max().unwrap_or(0);
    let run = match outcome {
        Ok((results, makespan)) => format!("{results:?} {makespan}"),
        Err(e) => format!("{e} @{last_clock}"),
    };
    format!(
        "{run} check={check:?} stm={}/{}/{} {}",
        stm.commits,
        stm.aborts,
        stm.fallbacks,
        trace.digest()
    )
}

fn sweep() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, case) in cases() {
        for quantum in [1, 7, DEFAULT_QUANTUM] {
            lines.push(format!(
                "{name} q={quantum}: {}",
                fingerprint(&case, quantum, None)
            ));
        }
        for panic in [false, true] {
            if panic && !case.panic_free_init {
                continue;
            }
            lines.push(format!(
                "{name} chaos panic={panic}: {}",
                fingerprint(&case, 7, Some(chaos(panic)))
            ));
        }
    }
    lines
}

#[test]
fn every_resumption_point_reproduces_the_os_thread_schedule() {
    let got = sweep();
    let want: Vec<&str> = PARENT.lines().map(str::trim).collect();
    assert_eq!(got.len(), want.len());
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}

/// Captured at commit d13f521 (virtual threads as OS threads).
const PARENT: &str = "\
    th q=1: [0, 0, 0, 0, 0, 0, 0, 0] 120686 check=Some(Ok(305)) stm=0/0/0 38b0ce9ba450acc7
    th q=7: [0, 0, 0, 0, 0, 0, 0, 0] 120686 check=Some(Ok(305)) stm=0/0/0 a59a843a5fce1179
    th q=128: [0, 0, 0, 0, 0, 0, 0, 0] 120686 check=Some(Ok(305)) stm=0/0/0 c5291287c4a09939
    th chaos panic=false: [0, 0, 0, 0, 0, 0, 0, 0] 119690 check=Some(Ok(305)) stm=0/0/0 a689cb2649afc04d
    kmeans q=1: [0, 0, 0, 0, 0, 0, 0, 0] 258177 check=Some(Ok(320)) stm=320/457/0 2287ee169eabb32e
    kmeans q=7: [0, 0, 0, 0, 0, 0, 0, 0] 258177 check=Some(Ok(320)) stm=320/457/0 ae695527337beb42
    kmeans q=128: [0, 0, 0, 0, 0, 0, 0, 0] 246068 check=Some(Ok(320)) stm=320/527/0 3cd1b9c3a36bc637
    kmeans chaos panic=false: [0, 0, 0, 0, 0, 0, 0, 0] 376682 check=Some(Ok(320)) stm=320/1854/0 0e0c93ec6abe4fdd
    kmeans chaos panic=true: injected panic on thread 0 (fault plan) @59640 check=Some(Ok(34)) stm=34/146/0 75c41b5e37c31845
    src q=1: [3792, 3807, 5050, 1785, -16, 1974, -680, 1754] 9156 check=None stm=0/0/0 c12888a1acf2caea
    src q=7: [6428, 5355, 4006, 3861, 714, 4558, 3648, 4625] 9156 check=None stm=0/0/0 9adbd7ad65142880
    src q=128: [6428, 5355, 4006, 3861, 714, 4558, 3648, 4625] 9156 check=None stm=0/0/0 c9e80cdaa27b6558
    src chaos panic=false: [4363, 4180, 4356, 2150, 4166, -1068, 3105, 1555] 9864 check=None stm=0/0/0 6e3cd3931c74ff64
    src chaos panic=true: injected panic on thread 6 (fault plan) @9341 check=None stm=0/0/0 989aab7eb325372f
    src-seh q=1: [5600, 4993, 5582, 2928, 2717, 2840, 1526, 3411] 9928 check=None stm=0/0/0 10d1345daeae640c
    src-seh q=7: [6436, 4757, 5266, -348, 1191, 1021, 2914, 4651] 9928 check=None stm=0/0/0 0c0838309e267780
    src-seh q=128: [6436, 4757, 5266, -348, 1191, 1021, 2914, 4651] 9928 check=None stm=0/0/0 21baa681733984a4
    src-seh chaos panic=false: [4355, 4072, 3103, -1642, 2653, 3548, 1479, 2738] 9429 check=None stm=0/0/0 4f9b67b3319311a0
    src-seh chaos panic=true: injected panic on thread 6 (fault plan) @8737 check=None stm=0/0/0 afac2a52d2472699
    src-rbatch q=1: [5600, 4993, 5582, 2928, 2717, 2840, 1526, 3411] 9928 check=None stm=0/0/0 10d1345daeae640c
    src-rbatch q=7: [6436, 4757, 5266, -348, 1191, 1021, 2914, 4651] 9928 check=None stm=0/0/0 0c0838309e267780
    src-rbatch q=128: [6436, 4757, 5266, -348, 1191, 1021, 2914, 4651] 9928 check=None stm=0/0/0 111af0fbd26c18de
    src-rbatch chaos panic=false: [4355, 4072, 3103, -1642, 2653, 3548, 1479, 2738] 9429 check=None stm=0/0/0 4f9b67b3319311a0
    src-rbatch chaos panic=true: injected panic on thread 6 (fault plan) @8737 check=None stm=0/0/0 afac2a52d2472699
    src-global q=1: [3077, 4152, 6160, 5465, 61, -3572, 1889, 2538] 4667 check=None stm=0/0/0 1f484d98e6bbd96f
    src-global q=7: [3077, 4152, 6160, 5465, 61, -3572, 1889, 2538] 4667 check=None stm=0/0/0 4a17f0cd05b75b27
    src-global q=128: [3077, 4152, 6160, 5465, 61, -3572, 1889, 2538] 4667 check=None stm=0/0/0 071f52910c2151af
    src-global chaos panic=false: [3326, 5273, 3426, 1704, 3143, 2730, 39, 6792] 5552 check=None stm=0/0/0 6df9565182214dd9
    src-global chaos panic=true: injected panic on thread 6 (fault plan) @5385 check=None stm=0/0/0 bff614b80522e9a8
    src-stm q=1: [3780, 4806, 2599, 3808, 2954, 644, 239, 4915] 10217 check=None stm=80/54/0 43e0bec5670d78c6
    src-stm q=7: [4255, 293, 1743, 4534, 1686, 2850, 2468, 6019] 8018 check=None stm=80/51/0 3406989ac441f196
    src-stm q=128: [4108, 1482, 3849, 934, -814, 3871, 4574, 3688] 6166 check=None stm=80/51/0 43446415ac4d4af7
    src-stm chaos panic=false: [4397, 4033, 2142, 4093, 1045, 2427, 1877, 4024] 7124 check=None stm=80/60/0 e53db6ebc57e0bf4
    src-stm chaos panic=true: injected panic on thread 6 (fault plan) @7117 check=None stm=76/56/0 b8d2545486453fb3
    src-stm-budget2 q=1: [1667, 1318, 1068, 2736, 2469, 2059, 3223, 3328] 7265 check=None stm=80/49/21 2c310dc9d8143cbf
    src-stm-budget2 q=7: [5229, 2159, 2704, 2202, 3768, 3910, -2203, 5734] 11147 check=None stm=80/47/21 1740d34cc0acb9a8
    src-stm-budget2 q=128: [5357, 1799, 2539, -213, -309, 863, 1722, 2833] 7364 check=None stm=80/47/22 f81337a1498f78aa
    src-stm-budget2 chaos panic=false: [2754, 1471, 4318, 3358, 1845, 3647, 4639, 5680] 7271 check=None stm=80/54/23 02193ec00a3c8da8
    src-stm-budget2 chaos panic=true: [3089, 1992, 3389, 2807, 2521, 2323, 3193, 2936] 15271 check=None stm=80/47/20 0dbd2ae90a79ea05
    calls q=1: [7568, 9099, 10052, 10042, 11259, 10698, 10948, 11328] 31797 check=None stm=0/0/0 966f7151af9ee3bc
    calls q=7: [7568, 9099, 10052, 10042, 11259, 10698, 10948, 11328] 31797 check=None stm=0/0/0 c98cfe16df045a74
    calls q=128: [7568, 9099, 10052, 10042, 11259, 10698, 10948, 11328] 31797 check=None stm=0/0/0 6dc6229488807674
    calls chaos panic=false: [6698, 8582, 8672, 9454, 8509, 7421, 7460, 10718] 40840 check=None stm=0/0/0 3aa8ec223a187021
    calls chaos panic=true: injected panic on thread 5 (fault plan) @34099 check=None stm=0/0/0 2da4c83d6ae4d8d7
    calls-stm q=1: [2681, 10712, 11412, 9284, 9024, 11791, 11670, 8399] 62645 check=None stm=160/132/0 2847b182d76f1aff
    calls-stm q=7: [2681, 10712, 11412, 9284, 9024, 11791, 11670, 8399] 62645 check=None stm=160/132/0 e55fad12ed186d67
    calls-stm q=128: [4732, 11372, 9265, 13846, 12749, 12533, 6910, 17885] 68385 check=None stm=160/118/0 5453bc927b2c7377
    calls-stm chaos panic=false: [8876, 13226, 13061, 5502, 11553, 8066, 15650, 11379] 66466 check=None stm=160/339/0 626b43caeca4a676
    calls-stm chaos panic=true: injected panic on thread 0 (fault plan) @39764 check=None stm=82/203/0 f1bb16406533f943";
