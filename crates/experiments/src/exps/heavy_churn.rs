//! Heavy-tailed churn: Pareto session and offline times.
//!
//! Real peer-to-peer session traces are heavy-tailed — most sessions are
//! short, a few last all day — where the paper's model is exponential.
//! This experiment keeps the *mean* online/offline durations fixed and
//! swaps only the distribution shape (`--pareto-shape`, default 1.5:
//! finite mean, infinite variance), so any metric movement is purely a
//! tail effect: more login/logoff events from the crowd of short
//! sessions, against a stable backbone of long-lived nodes for the
//! reconfiguration protocol to discover and keep.

use super::{fold_digests, gnutella_reports, pct_delta, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::Mode;
use ddr_stats::Table;
use ddr_workload::ChurnModel;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone().tuned(4, 48));

    let exp = opts.scenario(Mode::Dynamic, 2);
    let mut pareto = exp.clone();
    pareto.workload.churn_model = ChurnModel::Pareto {
        shape: opts.pack.pareto_shape,
    };

    let reports = gnutella_reports(&opts, vec![exp, pareto], em);
    let (base, heavy) = (&reports[0], &reports[1]);

    let mut t = Table::new(
        format!(
            "Heavy-tailed churn: exponential vs Pareto(shape={}) sessions, same means",
            opts.pack.pareto_shape
        ),
        &[
            "Churn model",
            "logins",
            "hits/hour",
            "msgs/hour",
            "hit ratio",
        ],
    );
    for (name, r) in [("exponential", base), ("pareto", heavy)] {
        t.row(vec![
            name.to_string(),
            format!("{}", r.metrics.logins),
            format!("{:.0}", r.mean_hits_per_hour()),
            format!("{:.0}", r.mean_messages_per_hour()),
            format!("{:.3}", r.hit_ratio()),
        ]);
    }
    em.table(&t);

    em.note(&format!(
        "delta vs exponential: logins {:+.1}%, hits/hour {:+.1}%, msgs/hour {:+.1}%",
        pct_delta(heavy.metrics.logins as f64, base.metrics.logins as f64),
        pct_delta(heavy.mean_hits_per_hour(), base.mean_hits_per_hour()),
        pct_delta(
            heavy.mean_messages_per_hour(),
            base.mean_messages_per_hour()
        ),
    ));
    em.note("invariants: ok (conservation holds under bursty session turnover)");
    em.note(&format!("digest: {:016x}", fold_digests(&[base, heavy])));

    opts.write_csv("heavy_churn", &t);
    opts.write_json("heavy_churn_report", heavy);
}
