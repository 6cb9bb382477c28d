//! EXPERIMENTS.md's Table 2 "ours" column is transcribed from
//! `results_table2.txt`; this holds each program's four cells
//! (Global / Coarse / Fine+Coarse / STM) to the results file at the
//! three decimals the report quotes, so a regenerated table cannot
//! leave the report behind.

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");
const RESULTS: &str = include_str!("../results_table2.txt");

/// A quoted time (`.007`, `**.007**`, `0.042`) in thousandths.
fn millis(cell: &str) -> u64 {
    let v: f64 = cell
        .trim()
        .trim_matches('*')
        .parse()
        .unwrap_or_else(|e| panic!("`{cell}` is not a time: {e}"));
    (v * 1000.0).round() as u64
}

/// `(program, [G, C, F, STM])` for every row of the report's Table 2.
fn report_rows() -> Vec<(String, [u64; 4])> {
    let table = EXPERIMENTS
        .split("\n## ")
        .find(|s| s.starts_with("Table 2"))
        .expect("EXPERIMENTS.md has a Table 2 section");
    table
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| program"))
        .map(|l| {
            let cols: Vec<&str> = l.split('|').map(str::trim).collect();
            // ["", program, paper, ours, shape, ""]
            let ours: Vec<u64> = cols[3].split('/').map(millis).collect();
            let ours: [u64; 4] = ours
                .try_into()
                .unwrap_or_else(|v| panic!("{}: four cells, got {v:?}", cols[1]));
            (cols[1].to_owned(), ours)
        })
        .collect()
}

/// `(program, [G, C, F, STM])` for every program row of the results.
fn results_rows() -> Vec<(String, [u64; 4])> {
    RESULTS
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty() && !l.starts_with(' '))
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            let cells = [1, 2, 3, 4].map(|i| millis(cols[i]));
            (cols[0].to_owned(), cells)
        })
        .collect()
}

#[test]
fn table2_report_cells_match_the_results_file() {
    let report = report_rows();
    let results = results_rows();
    assert_eq!(results.len(), 15, "the results file has 15 programs");
    let mut names: Vec<&str> = report.iter().map(|(p, _)| p.as_str()).collect();
    let mut want: Vec<&str> = results.iter().map(|(p, _)| p.as_str()).collect();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want, "the report quotes every program once");
    for (program, cells) in &report {
        let (_, measured) = results.iter().find(|(p, _)| p == program).unwrap();
        assert_eq!(
            cells, measured,
            "{program}: EXPERIMENTS.md quotes {cells:?} ms, results_table2.txt reads {measured:?} ms"
        );
    }
}
