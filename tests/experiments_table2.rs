//! EXPERIMENTS.md transcribes three results files; this holds each
//! transcription to its file, so a regenerated table cannot leave the
//! report behind:
//!
//! * Table 2's "ours" column — each program's four cells (Global /
//!   Coarse / Fine+Coarse / STM) — to `results_table2.txt` at the three
//!   decimals the report quotes;
//! * Table 1's "ours" side — each synthetic program's KLOC (one
//!   decimal), k=0 seconds (three) and k=9 seconds (one) — to
//!   `results_table1.txt`;
//! * Figure 7's concurrent-benchmark rows — the five lock counts at
//!   each k, a `3–9` row standing for every k it spans — and the
//!   synthetic block's totals its prose quotes for k = 3..9 to
//!   `results_figure7.txt`;
//! * the Ablation table — each scheme's five lock counts, row by row —
//!   to `results_ablation.txt`;
//! * every `a → b` endpoint the Figure 8 section quotes — a program's
//!   time at 1 and at 8 threads under the bullet's scheme, at the
//!   decimals quoted — to `results_figure8.txt`.

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");
const RESULTS: &str = include_str!("../results_table2.txt");
const TABLE1: &str = include_str!("../results_table1.txt");
const FIGURE7: &str = include_str!("../results_figure7.txt");
const ABLATION: &str = include_str!("../results_ablation.txt");
const FIGURE8: &str = include_str!("../results_figure8.txt");

/// The body of the report section whose heading starts with `title`.
fn report_section(title: &str) -> &'static str {
    EXPERIMENTS
        .split("\n## ")
        .find(|s| s.starts_with(title))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has a {title} section"))
}

/// The cells of every body row of the first Markdown table in
/// `section` (header and rule skipped), outer pipes dropped.
fn table_rows(section: &str) -> Vec<Vec<&str>> {
    section
        .lines()
        .skip_while(|l| !l.starts_with("|---"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cols: Vec<&str> = l.split('|').map(str::trim).collect();
            cols[1..cols.len() - 1].to_vec()
        })
        .collect()
}

/// A quoted number (`.007`, `**.007**`, `1.9`) in units of
/// `10^-decimals`, rounded.
fn fixed(cell: &str, decimals: i32) -> i64 {
    let v: f64 = cell
        .trim()
        .trim_matches('*')
        .parse()
        .unwrap_or_else(|e| panic!("`{cell}` is not a number: {e}"));
    (v * 10f64.powi(decimals)).round() as i64
}

/// `(program, [G, C, F, STM])` in thousandths for every row of the
/// report's Table 2.
fn report_rows() -> Vec<(String, [i64; 4])> {
    table_rows(report_section("Table 2"))
        .into_iter()
        .map(|cols| {
            // [program, paper, ours, shape]
            let ours: Vec<i64> = cols[2].split('/').map(|c| fixed(c, 3)).collect();
            let ours: [i64; 4] = ours
                .try_into()
                .unwrap_or_else(|v| panic!("{}: four cells, got {v:?}", cols[0]));
            (cols[0].to_owned(), ours)
        })
        .collect()
}

/// `(program, [G, C, F, STM])` in thousandths for every program row of
/// the results.
fn results_rows() -> Vec<(String, [i64; 4])> {
    RESULTS
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty() && !l.starts_with(' '))
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            let cells = [1, 2, 3, 4].map(|i| fixed(cols[i], 3));
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

/// The "ours" side of a `paper → ours` cell.
fn ours(cell: &str) -> &str {
    cell.rsplit('→')
        .next()
        .expect("split yields a piece")
        .trim()
}

#[test]
fn table1_report_cells_match_the_results_file() {
    // Program rows of the results file: `name kloc sections k0 k9`.
    let results: Vec<Vec<&str>> = TABLE1
        .lines()
        .filter(|l| l.starts_with("syn-"))
        .map(|l| l.split_whitespace().collect())
        .collect();
    let report = table_rows(report_section("Table 1"));
    assert_eq!(
        results.len(),
        7,
        "the results file has 7 synthetic programs"
    );
    assert_eq!(report.len(), results.len(), "the report quotes every one");
    for row in &report {
        // [program, KLOC, k=0, k=9], each `paper → ours`.
        let program = ours(row[0]);
        let measured = results
            .iter()
            .find(|r| r[0] == program)
            .unwrap_or_else(|| panic!("{program}: not in results_table1.txt"));
        for (col, name, at, decimals) in [(1, "KLOC", 1, 1), (2, "k=0", 3, 3), (3, "k=9", 4, 1)] {
            assert_eq!(
                fixed(ours(row[col]), decimals),
                fixed(measured[at], decimals),
                "{program} {name}: EXPERIMENTS.md quotes {}, results_table1.txt reads {}",
                ours(row[col]),
                measured[at]
            );
        }
    }
}

/// The block of `results_figure7.txt` headed `heading`: `k fine-ro
/// fine-rw coarse-ro coarse-rw total`, one row per k = 0..9.
fn figure7_block(heading: &str) -> Vec<[u64; 6]> {
    let rows: Vec<[u64; 6]> = FIGURE7
        .split("\n\n")
        .find(|b| b.starts_with(heading))
        .unwrap_or_else(|| panic!("results_figure7.txt has a `{heading}` block"))
        .lines()
        .skip(2)
        .map(|l| {
            let cols: Vec<u64> = l.split_whitespace().map(|c| c.parse().unwrap()).collect();
            cols.try_into()
                .unwrap_or_else(|c| panic!("six columns, got {c:?}"))
        })
        .collect();
    assert_eq!(
        rows.iter().map(|r| r[0]).collect::<Vec<_>>(),
        (0..=9).collect::<Vec<u64>>(),
        "the `{heading}` block has one row per k = 0..9"
    );
    rows
}

#[test]
fn figure7_report_rows_match_the_results_file() {
    let results = figure7_block("Concurrent benchmarks");
    let mut quoted = Vec::new();
    for row in table_rows(report_section("Figure 7")) {
        // `k` or a `lo–hi` range, then the five counts.
        let (lo, hi) = match row[0].split_once('–') {
            Some((lo, hi)) => (lo.parse::<u64>().unwrap(), hi.parse::<u64>().unwrap()),
            None => {
                let k = row[0].parse::<u64>().unwrap();
                (k, k)
            }
        };
        let counts: Vec<u64> = row[1..].iter().map(|c| c.parse().unwrap()).collect();
        for k in lo..=hi {
            let measured = &results[k as usize][1..];
            assert_eq!(
                counts, measured,
                "k={k}: EXPERIMENTS.md quotes {counts:?}, results_figure7.txt reads {measured:?}"
            );
            quoted.push(k);
        }
    }
    assert_eq!(
        quoted,
        (0..=9).collect::<Vec<u64>>(),
        "the report quotes every k once"
    );
    // The prose quotes the synthetic block's totals as `(T at k = K,
    // then a / b / … for k = LO..HI)`, across a line break.
    let synthetic = figure7_block("Synthetic SPEC-like");
    let prose = report_section("Figure 7")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    let (first, after) = prose
        .split('(')
        .find_map(|q| {
            let (first, after) = q.split_once(" at k = ")?;
            Some((first.parse::<u64>().ok()?, after))
        })
        .expect("the Figure 7 prose quotes `(T at k = K, then …)`");
    let (k, rest) = after.split_once(", then ").unwrap();
    let (totals, range) = rest.split_once(" for k = ").unwrap();
    let (lo, hi) = range.split(')').next().unwrap().split_once("..").unwrap();
    let k: u64 = k.parse().unwrap();
    let (lo, hi): (u64, u64) = (lo.parse().unwrap(), hi.parse().unwrap());
    assert_eq!(lo, k + 1, "the quoted ranges are contiguous");
    let totals: Vec<u64> = totals.split(" / ").map(|t| t.parse().unwrap()).collect();
    assert_eq!(
        totals.len() as u64,
        hi - lo + 1,
        "one total per k in {lo}..{hi}: {totals:?}"
    );
    for (k, total) in std::iter::once((k, first)).chain((lo..=hi).zip(totals)) {
        let measured = synthetic[k as usize][5];
        assert_eq!(
            total, measured,
            "synthetic k={k}: EXPERIMENTS.md quotes {total}, results_figure7.txt reads {measured}"
        );
    }
}

#[test]
fn ablation_report_rows_match_the_results_file() {
    // `Scheme fine-ro fine-rw coarse-ro coarse-rw total` under a header
    // line; the scheme name is the words before the five counts.
    let results: Vec<Vec<u64>> = ABLATION
        .lines()
        .skip(2)
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            cols[cols.len() - 5..]
                .iter()
                .map(|c| c.parse().unwrap())
                .collect()
        })
        .collect();
    let report = table_rows(report_section("Ablation"));
    assert_eq!(results.len(), 5, "the results file has 5 schemes");
    assert_eq!(report.len(), results.len(), "the report quotes every one");
    for (row, measured) in report.iter().zip(&results) {
        let counts: Vec<u64> = row[1..].iter().map(|c| c.parse().unwrap()).collect();
        assert_eq!(
            &counts, measured,
            "{}: EXPERIMENTS.md quotes {counts:?}, results_ablation.txt reads {measured:?}",
            row[0]
        );
    }
}

/// A quoted time and the decimals it is quoted at (`0.03` → 2).
fn quoted(cell: &str) -> (i64, i32) {
    let decimals = cell.split_once('.').map_or(0, |(_, f)| f.len() as i32);
    (fixed(cell, decimals), decimals)
}

#[test]
fn figure8_report_endpoints_match_the_results_file() {
    // `== Scheme ==` blocks of `program t1 t2 t4 t8` rows.
    let blocks: Vec<(&str, Vec<Vec<&str>>)> = FIGURE8
        .split("== ")
        .skip(1)
        .map(|b| {
            let (scheme, body) = b.split_once(" ==").expect("a block names its scheme");
            let rows = body
                .lines()
                .skip(2)
                .take_while(|l| !l.trim().is_empty() && !l.starts_with('('))
                .map(|l| l.split_whitespace().collect())
                .collect();
            (scheme, rows)
        })
        .collect();
    assert_eq!(blocks.len(), 4, "the results file has four schemes");
    let programs: Vec<&str> = blocks[0].1.iter().map(|r| r[0]).collect();
    let mut endpoints = 0;
    // One bullet per scheme: `* **Coarse (k=0)**: …`.
    for bullet in report_section("Figure 8").split("\n* **").skip(1) {
        let (label, text) = bullet.split_once("**").expect("a bullet names its scheme");
        let scheme = label.replace(" (", "(");
        let (_, rows) = blocks
            .iter()
            .find(|(s, _)| *s == scheme)
            .unwrap_or_else(|| panic!("`{label}`: no such block in results_figure8.txt"));
        // Each `a → b` is the last program named before it, or the
        // last `x and y`; a name like `rbtree` stands for every row it
        // prefixes.
        let mut named: Vec<&str> = Vec::new();
        let mut rest = text;
        while let Some((before, after)) = rest.split_once(" → ") {
            let (mut and, mut chained) = (false, false);
            for word in before
                .split(|c: char| !(c.is_alphanumeric() || c == '-'))
                .filter(|w| !w.is_empty())
            {
                let rows = programs.iter().copied().filter(|p| {
                    *p == word || p.strip_prefix(word).is_some_and(|s| s.starts_with('-'))
                });
                let rows: Vec<&str> = rows.collect();
                if rows.is_empty() {
                    and = chained && word == "and";
                    chained = false;
                    continue;
                }
                if !and {
                    named.clear();
                }
                named.extend(rows);
                (and, chained) = (false, true);
            }
            let from = before
                .rsplit(|c: char| !(c.is_ascii_digit() || c == '.'))
                .next()
                .unwrap();
            let to = after
                .split(|c: char| !(c.is_ascii_digit() || c == '.'))
                .next()
                .unwrap();
            let to = to.trim_end_matches('.');
            assert!(
                !named.is_empty(),
                "{label}: `{from} → {to}` names no program"
            );
            for program in &named {
                let row = rows.iter().find(|r| r[0] == *program).unwrap();
                for (cell, at, threads) in [(from, 1, 1), (to, 4, 8)] {
                    let (want, decimals) = quoted(cell);
                    assert_eq!(
                        want,
                        fixed(row[at], decimals),
                        "{label} {program}, {threads}-thread time: EXPERIMENTS.md quotes {cell}, \
                         results_figure8.txt reads {}",
                        row[at]
                    );
                }
            }
            endpoints += 1;
            rest = after;
        }
    }
    assert_eq!(endpoints, 5, "the report quotes five endpoints");
}
