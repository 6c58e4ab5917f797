//! Regenerate the paper's figures as tables.
//!
//! ```text
//! cargo run --release -p bsoap-bench --bin figures -- --all
//! cargo run --release -p bsoap-bench --bin figures -- --fig 4 --reps 50
//! cargo run --release -p bsoap-bench --bin figures -- --fig 12 --quick --csv
//! ```
//!
//! Figure 0 is the §2 conversion-share ablation.

use bsoap_bench::ablations::{
    ablation_chunk_size, ablation_diff_deser, ablation_growth_policy, ablation_http_framing,
    ablation_reserve, ablation_server_dispatch, ablation_stealing,
};
use bsoap_bench::plot::render_loglog;
use bsoap_bench::scenarios::{
    fig_ablation, fig_content_match, fig_kernel, fig_overlay, fig_psm, fig_shift_partial,
    fig_shift_worst, fig_stuffing, Table,
};
use bsoap_bench::workload::{Kind, PAPER_SIZES, QUICK_SIZES};

struct Opts {
    figs: Vec<u32>,
    reps: usize,
    sizes: Vec<usize>,
    csv: bool,
    plot: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut figs = Vec::new();
    let mut reps = 20usize;
    let mut sizes: Vec<usize> = PAPER_SIZES.to_vec();
    let mut csv = false;
    let mut plot = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all" => figs = (0..=12).collect(),
            // Figure 19 is retired; its recorded row stays in EXPERIMENTS.md.
            "--ablations" => figs.extend((13..=21).filter(|&f| f != 19)),
            "--fig" => {
                let v = args.next().ok_or("--fig needs a number")?;
                figs.push(v.parse().map_err(|_| format!("bad figure number {v}"))?);
            }
            "--reps" => {
                let v = args.next().ok_or("--reps needs a number")?;
                reps = v.parse().map_err(|_| format!("bad rep count {v}"))?;
            }
            "--sizes" => {
                let v = args.next().ok_or("--sizes needs a comma list")?;
                sizes = v
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("bad size {s}")))
                    .collect::<Result<_, _>>()?;
            }
            "--quick" => sizes = QUICK_SIZES.to_vec(),
            "--csv" => csv = true,
            "--plot" => plot = true,
            "--help" | "-h" => {
                println!(
                    "usage: figures [--all] [--fig N]... [--reps N] \
                     [--sizes a,b,c] [--quick] [--csv] [--plot] [--ablations]\n\
                     figures: 0 = §2 ablation, 1-12 = the paper's figures,\n\
                     13-18, 20, 21 = design-space ablations (chunk size,\n\
                     stealing, reserve, growth policy, differential deser,\n\
                     HTTP framing, server dispatch, conversion kernel)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if figs.is_empty() {
        return Err("nothing to do: pass --all or --fig N (try --help)".to_owned());
    }
    figs.sort_unstable();
    figs.dedup();
    Ok(Opts {
        figs,
        reps,
        sizes,
        csv,
        plot,
    })
}

fn run_figure(fig: u32, sizes: &[usize], reps: usize) -> Option<Table> {
    // The linear-axis figures (4, 5, 12) only show their shape at larger
    // sizes; drop the tiny points the paper also omits there.
    let linear: Vec<usize> = sizes.iter().copied().filter(|&n| n >= 100).collect();
    let linear = if linear.is_empty() {
        sizes.to_vec()
    } else {
        linear
    };
    Some(match fig {
        0 => fig_ablation(sizes, reps),
        1 => fig_content_match(Kind::Mios, sizes, reps),
        2 => fig_content_match(Kind::Doubles, sizes, reps),
        3 => fig_content_match(Kind::Ints, sizes, reps),
        4 => fig_psm(Kind::Mios, &linear, reps),
        5 => fig_psm(Kind::Doubles, &linear, reps),
        6 => fig_shift_worst(Kind::Mios, sizes, reps),
        7 => fig_shift_worst(Kind::Doubles, sizes, reps),
        8 => fig_shift_partial(Kind::Mios, sizes, reps),
        9 => fig_shift_partial(Kind::Doubles, sizes, reps),
        10 => fig_stuffing(Kind::Mios, sizes, reps),
        11 => fig_stuffing(Kind::Doubles, sizes, reps),
        12 => fig_overlay(&linear, reps),
        // 13-21: design-space ablations beyond the paper's figures.
        13 => ablation_chunk_size(Kind::Doubles, sizes, reps),
        14 => ablation_stealing(sizes, reps),
        15 => ablation_reserve(sizes, reps),
        16 => ablation_growth_policy(sizes, reps),
        17 => ablation_diff_deser(sizes, reps),
        18 => ablation_http_framing(sizes, reps),
        20 => ablation_server_dispatch(sizes, reps),
        21 => fig_kernel(Kind::Doubles, sizes, reps),
        _ => return None,
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "sizes {:?}, {} repetitions per point (paper used 100; --reps to change)",
        opts.sizes, opts.reps
    );
    for fig in &opts.figs {
        match run_figure(*fig, &opts.sizes, opts.reps) {
            Some(table) => {
                if opts.csv {
                    println!("# {} — {}", table.id, table.title);
                    print!("{}", table.to_csv());
                } else if opts.plot {
                    println!("{}", render_loglog(&table, 72, 20));
                } else {
                    println!("{}", table.render());
                }
            }
            None => eprintln!("no such figure: {fig}"),
        }
    }
}
