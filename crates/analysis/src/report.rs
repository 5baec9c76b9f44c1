//! A consolidated study report: every §5–§7 analysis over one classified
//! trace, rendered as a single markdown-ish document — the deliverable an
//! operator (or a reviewer) reads end to end.

use crate::{addrstruct, attack, ccdf, evaluate, portmix, scatter, sizes, timeseries, venn};
use spoofwatch_core::{
    Classifier, Confidence, DecisionRecord, DegradedStats, DisagreementMatrix, LiveSession,
    MemberBreakdown, RunnerHealth, ShardStudyReport, Table1,
};
use spoofwatch_net::InferenceMethod;
use spoofwatch_internet::Internet;
use spoofwatch_ixp::{Trace, TrafficLabel};
use spoofwatch_net::{IngestHealth, TrafficClass};
use std::collections::HashSet;

/// Health of the ingest pipeline that produced the classified trace: one
/// [`IngestHealth`] per upstream source (pcap capture, IPFIX feed, MRT
/// dump, …) plus the routing-table freshness the classifier ran under.
/// Attached to a [`StudyReport`] so a reader can judge how much of the
/// input survived decoding before trusting the numbers downstream.
pub struct IngestSummary {
    /// Per-source decode health, in the order the sources were ingested.
    pub sources: Vec<(String, IngestHealth)>,
    /// Freshness of the routing table at classification time.
    pub table_confidence: Confidence,
    /// Confidence counters from degraded-mode classification, when the
    /// degraded path was used.
    pub degraded: Option<DegradedStats>,
}

impl IngestSummary {
    /// Total bytes quarantined across all sources.
    pub fn quarantined_bytes(&self) -> u64 {
        self.sources.iter().map(|(_, h)| h.quarantined_bytes).sum()
    }

    /// True when every source decoded fully and the table is fresh.
    pub fn is_clean(&self) -> bool {
        self.table_confidence == Confidence::Fresh
            && self
                .sources
                .iter()
                .all(|(_, h)| h.resyncs == 0 && h.quarantined_bytes == 0 && !h.unrecoverable)
    }
}

/// Everything the study produces, computed in one pass.
pub struct StudyReport {
    /// Table 1.
    pub table1: Table1,
    /// Figure 4 CCDFs.
    pub fig4: ccdf::Fig4,
    /// Figure 5 Venn regions.
    pub fig5: venn::Fig5,
    /// Figure 6 scatter points.
    pub fig6: scatter::Fig6,
    /// Figure 8a size CDFs.
    pub fig8a: sizes::Fig8a,
    /// Figure 8b time series.
    pub fig8b: timeseries::Fig8b,
    /// Figure 9 port mix.
    pub fig9: portmix::Fig9,
    /// Figure 10 address structure.
    pub fig10: addrstruct::Fig10,
    /// Figure 11a ratio histogram.
    pub fig11a: attack::Fig11a,
    /// Figure 11b/§7 NTP analysis.
    pub ntp: attack::NtpAnalysis,
    /// Figure 11c reflection series.
    pub fig11c: attack::Fig11c,
    /// Ground-truth scoring (synthetic traces only).
    pub evaluation: Option<evaluate::Evaluation>,
    /// Ingest-pipeline health, when the caller attached it.
    pub ingest: Option<IngestSummary>,
    /// Streaming-runner supervision and backpressure health, when the
    /// study ran under [`spoofwatch_core::StudyRunner`].
    pub runner: Option<RunnerHealth>,
    /// Metrics snapshot captured at report time, when the study ran
    /// with telemetry enabled.
    pub telemetry: Option<spoofwatch_obs::Snapshot>,
    /// Method-disagreement matrix, when the run tracked it.
    pub disagreement: Option<DisagreementMatrix>,
    /// Decision-provenance exemplars, when the caller attached the
    /// [`spoofwatch_core::Classifier::classify_explain`] records of
    /// flows it picked.
    pub provenance: Option<Vec<DecisionRecord>>,
    /// Sharded-study outcome, when the study ran distributed across
    /// shard workers.
    pub shards: Option<ShardStudyReport>,
    /// Live-session telemetry, when the study ingested a socket-fed
    /// stream under [`spoofwatch_core::serve_live`].
    pub live: Option<LiveSession>,
}

impl StudyReport {
    /// Compute the full report. Labels are optional: pass them when the
    /// trace is synthetic to add the ground-truth section.
    pub fn compute(
        net: &Internet,
        trace: &Trace,
        classifier: &Classifier,
        classes: &[TrafficClass],
        labels: Option<&[TrafficLabel]>,
    ) -> StudyReport {
        let breakdown = MemberBreakdown::from_classes(&trace.flows, classes);
        StudyReport {
            table1: Table1::compute(classifier, &trace.flows),
            fig4: ccdf::Fig4::compute(&breakdown),
            fig5: venn::Fig5::compute(&breakdown, &HashSet::new()),
            fig6: scatter::Fig6::compute(&breakdown, net),
            fig8a: sizes::Fig8a::compute(&trace.flows, classes),
            fig8b: timeseries::Fig8b::compute(&trace.flows, classes, trace.duration),
            fig9: portmix::Fig9::compute(&trace.flows, classes),
            fig10: addrstruct::Fig10::compute(&trace.flows, classes),
            fig11a: attack::Fig11a::compute(&trace.flows, classes, 50),
            ntp: attack::NtpAnalysis::compute(&trace.flows, classes, 10),
            fig11c: attack::Fig11c::compute(&trace.flows, classes, trace.duration),
            evaluation: labels
                .map(|l| evaluate::Evaluation::compute(&trace.flows, l, classes)),
            ingest: None,
            runner: None,
            telemetry: None,
            disagreement: None,
            provenance: None,
            shards: None,
            live: None,
        }
    }

    /// Attach ingest-pipeline health so [`render`](Self::render) includes
    /// a data-quality section.
    pub fn with_ingest(mut self, summary: IngestSummary) -> Self {
        self.ingest = Some(summary);
        self
    }

    /// Attach streaming-runner health so [`render`](Self::render)
    /// includes a supervision & backpressure section.
    pub fn with_runner(mut self, health: RunnerHealth) -> Self {
        self.runner = Some(health);
        self
    }

    /// Attach a metrics snapshot so [`render`](Self::render) includes a
    /// telemetry section (latency quantiles, decode fault taxonomy,
    /// per-class flow counters).
    pub fn with_telemetry(mut self, snapshot: spoofwatch_obs::Snapshot) -> Self {
        self.telemetry = Some(snapshot);
        self
    }

    /// Attach a method-disagreement matrix so [`render`](Self::render)
    /// includes a method-sensitivity section (pairwise transition
    /// counts and org-adjustment deltas).
    pub fn with_disagreement(mut self, matrix: DisagreementMatrix) -> Self {
        self.disagreement = Some(matrix);
        self
    }

    /// Attach decision-provenance exemplars so
    /// [`render`](Self::render) includes a "why was this flow classified
    /// that way" section.
    pub fn with_provenance(mut self, exemplars: Vec<DecisionRecord>) -> Self {
        self.provenance = Some(exemplars);
        self
    }

    /// Attach a sharded-study outcome so [`render`](Self::render)
    /// includes a distribution section — per-shard control-plane health,
    /// the loss-extended accounting invariant, and degradation caveats
    /// when a shard was lost past its retry budget.
    pub fn with_shards(mut self, report: ShardStudyReport) -> Self {
        self.shards = Some(report);
        self
    }

    /// Attach live-session telemetry so [`render`](Self::render) includes
    /// a live-ingest section — achieved rate, overload-ladder residence
    /// times, credit/resume traffic, and the session-delta accounting
    /// with live shedding folded in.
    pub fn with_live(mut self, session: LiveSession) -> Self {
        self.live = Some(session);
        self
    }

    /// Render the headline findings as one document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# Passive spoofing study report\n\n## Traffic classes (Table 1)\n\n");
        let rows: Vec<Vec<String>> = self
            .table1
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    format!("{} ({:.1}%)", r.members, r.members_pct),
                    format!("{:.3}%", r.bytes_pct),
                    format!("{:.3}%", r.packets_pct),
                ]
            })
            .collect();
        out.push_str(&crate::render::table(
            &["class", "members", "bytes", "packets"],
            &rows,
        ));

        out.push_str("\n## Filtering consistency (Figure 5)\n\n");
        out.push_str(&self.fig5.render());

        out.push_str("\n## Headline attack findings (§7)\n\n");
        out.push_str(&format!(
            "- NTP amplification: {} victims, {} amplifiers contacted, top member \
             emits {:.1}% of trigger traffic\n",
            self.ntp.distinct_victims,
            self.ntp.contacted_amplifiers,
            100.0 * self.ntp.top_member_share,
        ));
        out.push_str(&format!(
            "- Reflection loop: {} matched (victim, amplifier) pairs, {:.1}x byte amplification\n",
            self.fig11c.matched_pairs, self.fig11c.amplification,
        ));
        out.push_str(&format!(
            "- Random spoofing: {:.0}% of Unrouted destinations receive every packet \
             from a distinct source\n",
            100.0 * self.fig11a.unique_source_fraction(TrafficClass::Unrouted),
        ));
        out.push_str(&format!(
            "- Small packets: {:.0}% of Bogon packets are ≤60 B (regular traffic: {:.0}%)\n",
            100.0 * self.fig8a.fraction_le(TrafficClass::Bogon, 60),
            100.0 * self.fig8a.fraction_le(TrafficClass::Valid, 60),
        ));
        out.push_str(&format!(
            "- Burstiness (CoV of hourly volume): regular {:.2}, unrouted {:.2}, invalid {:.2}\n",
            self.fig8b.burstiness(TrafficClass::Valid),
            self.fig8b.burstiness(TrafficClass::Unrouted),
            self.fig8b.burstiness(TrafficClass::Invalid),
        ));

        if let Some(eval) = &self.evaluation {
            out.push_str("\n## Ground-truth scoring (synthetic trace)\n\n");
            out.push_str(&eval.render());
        }

        if let Some(ingest) = &self.ingest {
            out.push_str("\n## Ingest health\n\n");
            for (name, health) in &ingest.sources {
                out.push_str(&format!("- `{name}`: {health}\n"));
            }
            out.push_str(&format!(
                "- routing table: {} at classification time\n",
                ingest.table_confidence,
            ));
            if let Some(d) = &ingest.degraded {
                out.push_str(&format!(
                    "- degraded-mode classification: {} flows ({} fresh, {} degraded, \
                     {} stale; {} tentative Unrouted verdicts)\n",
                    d.flows, d.fresh, d.degraded, d.stale, d.unrouted_tentative,
                ));
            }
            if !ingest.is_clean() {
                out.push_str(
                    "\n*Caveat: part of the input was quarantined or classified against \
                     a stale routing table; treat small classes with care.*\n",
                );
            }
        }

        if let Some(runner) = &self.runner {
            out.push_str("\n## Supervision & backpressure\n\n");
            out.push_str(&format!(
                "- chunks: {} offered, {} processed, {} shed, {} quarantined\n",
                runner.chunks.offered,
                runner.chunks.processed,
                runner.chunks.shed,
                runner.chunks.quarantined,
            ));
            out.push_str(&format!(
                "- records: {} offered, {} processed, {} shed, {} quarantined\n",
                runner.records.offered,
                runner.records.processed,
                runner.records.shed,
                runner.records.quarantined,
            ));
            out.push_str(&format!(
                "- accounting reconciles: {}\n",
                if runner.reconciles() { "yes" } else { "NO" },
            ));
            out.push_str(&format!(
                "- supervision: {} worker restarts, {} watchdog stalls, \
                 {} checkpoints written, {} rejected as torn\n",
                runner.worker_restarts,
                runner.watchdog_stalls,
                runner.checkpoints_written,
                runner.checkpoints_rejected,
            ));
            if let Some(seq) = runner.resumed_at_chunk {
                out.push_str(&format!("- resumed from checkpoint at chunk {seq}\n"));
            }
            if runner.records.shed > 0 || runner.records.quarantined > 0 {
                out.push_str(
                    "\n*Caveat: load shedding or panic quarantine dropped part of the \
                     trace; class shares reflect the processed subset only.*\n",
                );
            }
        }

        if let Some(snap) = &self.telemetry {
            out.push_str("\n## Telemetry\n\n");
            let series: usize = snap.families.iter().map(|f| f.series.len()).sum();
            out.push_str(&format!(
                "- metrics snapshot: {} families, {series} series\n",
                snap.families.len(),
            ));
            for (name, label) in [
                (
                    "spoofwatch_runner_chunk_classify_duration_ns",
                    "per-chunk classify latency",
                ),
                (
                    "spoofwatch_runner_checkpoint_write_duration_ns",
                    "checkpoint write latency",
                ),
            ] {
                if let Some(h) = snap.histogram(name, &[]) {
                    out.push_str(&format!("- {label}: {}\n", render_quantiles(h)));
                }
            }
            let classified = snap.counter_sum("spoofwatch_runner_classified_flows_total");
            if classified > 0 {
                let per_class: Vec<String> = ["bogon", "unrouted", "invalid", "valid"]
                    .iter()
                    .map(|cl| {
                        let n = snap
                            .counter(
                                "spoofwatch_runner_classified_flows_total",
                                &[("class", cl)],
                            )
                            .unwrap_or(0);
                        format!("{cl} {n}")
                    })
                    .collect();
                out.push_str(&format!(
                    "- classified flows (runner): {}\n",
                    per_class.join(", "),
                ));
            }
            let faults = snap.counter_sum("spoofwatch_decode_faults_total");
            if faults > 0 {
                out.push_str(&format!("- decode faults: {faults} total\n"));
                for fam in snap
                    .families
                    .iter()
                    .filter(|f| f.name == "spoofwatch_decode_faults_total")
                {
                    for s in &fam.series {
                        if let spoofwatch_obs::SeriesValue::Counter(n) = &s.value {
                            let labels: Vec<String> = s
                                .labels
                                .iter()
                                .map(|(k, v)| format!("{k}={v}"))
                                .collect();
                            out.push_str(&format!("  - {}: {n}\n", labels.join(" ")));
                        }
                    }
                }
            }
            if let Some(depth) = snap.gauge("spoofwatch_runner_queue_depth", &[]) {
                out.push_str(&format!("- queue depth at snapshot: {depth}\n"));
            }
            if let Some(conf) = snap.gauge("spoofwatch_rib_confidence", &[]) {
                let word = match conf {
                    0 => "fresh",
                    1 => "degraded",
                    _ => "stale",
                };
                out.push_str(&format!("- routing-table feed grade: {word}\n"));
            }
        }

        if let Some(m) = &self.disagreement {
            out.push_str("\n## Method disagreement\n\n");
            out.push_str(&m.render());
            out.push_str(&format!(
                "- org adjustment moved {} flows under customer cone, {} under full cone\n",
                m.org_delta(InferenceMethod::CustomerCone),
                m.org_delta(InferenceMethod::FullCone),
            ));
            if !m.reconciles() {
                out.push_str("\n*Caveat: disagreement cells do not tile the batch.*\n");
            }
        }

        if let Some(shards) = &self.shards {
            out.push_str("\n## Distribution & shard health\n\n");
            out.push_str(&format!(
                "- plan: {} shard(s), partition salt {:#x}\n",
                shards.plan.shards, shards.plan.salt,
            ));
            for s in &shards.shards {
                let state = if s.lost {
                    "LOST"
                } else if s.completed {
                    "completed"
                } else {
                    "incomplete"
                };
                out.push_str(&format!(
                    "- shard {}: {state}, {} chunks committed, {} death(s), \
                     {} heartbeat miss(es), {} wire fault(s)\n",
                    s.shard_id, s.committed_chunks, s.deaths, s.heartbeat_misses, s.wire_faults,
                ));
            }
            out.push_str(&format!(
                "- records: {} offered, {} processed, {} shed, {} quarantined, {} lost\n",
                shards.records.offered,
                shards.records.processed,
                shards.records.shed,
                shards.records.quarantined,
                shards.records.lost,
            ));
            out.push_str(&format!(
                "- accounting reconciles (offered == processed + shed + quarantined + lost): {}\n",
                if shards.reconciles() { "yes" } else { "NO" },
            ));
            for caveat in shards.caveats() {
                out.push_str(&format!("\n*Caveat: {caveat}.*\n"));
            }
        }

        if let Some(live) = &self.live {
            out.push_str("\n## Live session\n\n");
            out.push_str(&format!(
                "- stream: {} records/chunk, target {}, admission window {} chunk(s)\n",
                live.chunk_records,
                if live.target_rps == 0 {
                    "line rate".to_string()
                } else {
                    format!("{} records/s", live.target_rps)
                },
                live.window,
            ));
            out.push_str(&format!(
                "- achieved {:.0} records/s over {:.2}s ({})\n",
                live.achieved_records_per_sec,
                live.duration_ns as f64 / 1e9,
                match (live.stop_requested, live.producer_lost) {
                    (_, true) => "producer lost; drained what was admitted",
                    (true, false) => "graceful drain on stop request",
                    (false, false) => "stream ran to completion",
                },
            ));
            let total_ns: u64 = live.time_in_state_ns.iter().sum();
            let pct = |ns: u64| {
                if total_ns == 0 {
                    0.0
                } else {
                    ns as f64 * 100.0 / total_ns as f64
                }
            };
            out.push_str(&format!(
                "- overload ladder: {:.1}% normal, {:.1}% pressure, {:.1}% shed, \
                 {:.1}% refuse ({} transition(s), {} shed recovery(ies))\n",
                pct(live.time_in_state_ns[0]),
                pct(live.time_in_state_ns[1]),
                pct(live.time_in_state_ns[2]),
                pct(live.time_in_state_ns[3]),
                live.transitions,
                live.shed_recoveries,
            ));
            out.push_str(&format!(
                "- flow control: {} credit grant(s), {} resume request(s), peak buffer \
                 {} of {} chunk(s)\n",
                live.credits_granted, live.resumes_sent, live.max_buffered_chunks, live.window,
            ));
            out.push_str(&format!(
                "- link: {} wire fault(s), {} protocol fault(s), {} producer stall(s), \
                 {} consumer stall(s)\n",
                live.wire_faults, live.protocol_faults, live.producer_stalls,
                live.consumer_stalls,
            ));
            if let Some(seq) = live.resumed_at_chunk {
                out.push_str(&format!("- resumed from checkpoint at chunk {seq}\n"));
            }
            out.push_str(&format!(
                "- session records: {} offered, {} processed, {} shed ({} at the live \
                 buffer), {} quarantined\n",
                live.records.offered,
                live.records.processed,
                live.records.shed,
                live.live_shed_records,
                live.records.quarantined,
            ));
            out.push_str(&format!(
                "- accounting reconciles (offered == processed + shed + quarantined): {}\n",
                if live.reconciles() { "yes" } else { "NO" },
            ));
            for caveat in live.caveats() {
                out.push_str(&format!("\n*Caveat: {caveat}.*\n"));
            }
        }

        if let Some(exemplars) = &self.provenance {
            out.push_str("\n## Decision provenance exemplars\n\n");
            if exemplars.is_empty() {
                out.push_str("- none sampled\n");
            }
            for r in exemplars {
                out.push_str(&format!("- {r}\n"));
            }
        }
        out
    }
}

/// `p50/p90/p99` line for a latency histogram, scaled from ns to the
/// most readable unit.
fn render_quantiles(h: &spoofwatch_obs::HistogramSnapshot) -> String {
    fn fmt_ns(ns: f64) -> String {
        if !ns.is_finite() {
            "overflow".to_string()
        } else if ns >= 1e9 {
            format!("{:.2} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.2} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.2} µs", ns / 1e3)
        } else {
            format!("{ns:.0} ns")
        }
    }
    let q = |p: f64| h.quantile(p).map(fmt_ns).unwrap_or_else(|| "-".to_string());
    format!(
        "p50 ≤ {}, p90 ≤ {}, p99 ≤ {} (n={})",
        q(0.50),
        q(0.90),
        q(0.99),
        h.count,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_internet::InternetConfig;
    use spoofwatch_ixp::TrafficConfig;
    use spoofwatch_net::{InferenceMethod, OrgMode};

    #[test]
    fn full_report_computes_and_renders() {
        let net = Internet::generate(InternetConfig::tiny(88));
        let trace = Trace::generate(&net, &TrafficConfig::tiny(8));
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let classes = classifier.classify_trace(
            &trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        );
        let report =
            StudyReport::compute(&net, &trace, &classifier, &classes, Some(&trace.labels));
        let text = report.render();
        assert!(text.contains("Table 1"));
        assert!(text.contains("NTP amplification"));
        assert!(text.contains("Ground-truth scoring"));
        assert!(report.evaluation.as_ref().unwrap().spoofed_recall > 0.5);
        // Without labels, the scoring section is absent.
        let anon = StudyReport::compute(&net, &trace, &classifier, &classes, None);
        assert!(!anon.render().contains("Ground-truth scoring"));
    }

    #[test]
    fn ingest_section_renders_when_attached() {
        let net = Internet::generate(InternetConfig::tiny(88));
        let trace = Trace::generate(&net, &TrafficConfig::tiny(8));
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let classes = classifier.classify_trace(
            &trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        );
        let report = StudyReport::compute(&net, &trace, &classifier, &classes, None);
        assert!(!report.render().contains("Ingest health"));

        let mut dirty = IngestHealth::new(1000);
        dirty.credit_ok(6);
        dirty.credit_record(959);
        dirty.quarantine(700, 35, spoofwatch_net::FaultKind::BadRecord);
        dirty.note_resync();
        assert!(dirty.reconciles());
        let summary = IngestSummary {
            sources: vec![
                ("flows.ipfix".to_string(), dirty),
                ("rib.mrt".to_string(), IngestHealth::new(0)),
            ],
            table_confidence: Confidence::Degraded,
            degraded: Some(DegradedStats {
                flows: trace.flows.len() as u64,
                fresh: 0,
                degraded: trace.flows.len() as u64,
                stale: 0,
                unrouted_tentative: 3,
            }),
        };
        assert_eq!(summary.quarantined_bytes(), 35);
        assert!(!summary.is_clean());
        let text = StudyReport::compute(&net, &trace, &classifier, &classes, None)
            .with_ingest(summary)
            .render();
        assert!(text.contains("Ingest health"));
        assert!(text.contains("flows.ipfix"));
        assert!(text.contains("degraded at classification time"));
        assert!(text.contains("tentative Unrouted"));
        assert!(text.contains("Caveat"));
    }

    #[test]
    fn runner_section_renders_when_attached() {
        use spoofwatch_core::FlowAccounting;
        let net = Internet::generate(InternetConfig::tiny(88));
        let trace = Trace::generate(&net, &TrafficConfig::tiny(8));
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let classes = classifier.classify_trace(
            &trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        );
        let report = StudyReport::compute(&net, &trace, &classifier, &classes, None);
        assert!(!report.render().contains("Supervision & backpressure"));

        let health = RunnerHealth {
            records: FlowAccounting {
                offered: 1000,
                processed: 900,
                shed: 60,
                quarantined: 40,
            },
            chunks: FlowAccounting {
                offered: 20,
                processed: 18,
                shed: 1,
                quarantined: 1,
            },
            worker_restarts: 1,
            watchdog_stalls: 0,
            checkpoints_written: 5,
            checkpoints_rejected: 1,
            resumed_at_chunk: Some(12),
        };
        assert!(health.reconciles());
        let text = StudyReport::compute(&net, &trace, &classifier, &classes, None)
            .with_runner(health)
            .render();
        assert!(text.contains("Supervision & backpressure"));
        assert!(text.contains("1000 offered, 900 processed, 60 shed, 40 quarantined"));
        assert!(text.contains("accounting reconciles: yes"));
        assert!(text.contains("resumed from checkpoint at chunk 12"));
        assert!(text.contains("1 rejected as torn"));
        assert!(text.contains("processed subset only"));
    }

    #[test]
    fn disagreement_and_provenance_sections_render_when_attached() {
        let net = Internet::generate(InternetConfig::tiny(88));
        let trace = Trace::generate(&net, &TrafficConfig::tiny(8));
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let classes = classifier.classify_trace(
            &trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        );
        let plain = StudyReport::compute(&net, &trace, &classifier, &classes, None).render();
        assert!(!plain.contains("Method disagreement"));
        assert!(!plain.contains("provenance exemplars"));

        let mut matrix = DisagreementMatrix::new();
        for variants in classifier.classify_variants_records_batched(&trace.flows) {
            matrix.record(&variants);
        }
        assert!(matrix.reconciles());
        let explain =
            |f| classifier.classify_explain(f, InferenceMethod::FullCone, OrgMode::OrgAdjusted);
        let exemplars: Vec<_> = trace.flows[..12].iter().map(explain).collect();
        for (e, class) in exemplars.iter().zip(&classes) {
            assert_eq!(e.class, *class);
        }

        let text = StudyReport::compute(&net, &trace, &classifier, &classes, None)
            .with_disagreement(matrix)
            .with_provenance(exemplars)
            .render();
        assert!(text.contains("## Method disagreement"));
        assert!(text.contains("naive vs customer_cone"));
        assert!(text.contains("org adjustment moved"));
        assert!(text.contains("## Decision provenance exemplars"));
        assert!(text.contains("->"), "exemplar lines use DecisionRecord display");
    }

    #[test]
    fn telemetry_section_renders_when_attached() {
        let net = Internet::generate(InternetConfig::tiny(88));
        let trace = Trace::generate(&net, &TrafficConfig::tiny(8));
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let classes = classifier.classify_trace(
            &trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        );
        let report = StudyReport::compute(&net, &trace, &classifier, &classes, None);
        assert!(!report.render().contains("## Telemetry"));

        let reg = spoofwatch_obs::MetricsRegistry::new();
        let lat = reg.histogram(
            "spoofwatch_runner_chunk_classify_duration_ns",
            "test",
            &[],
        );
        for v in [900, 12_000, 45_000, 2_000_000] {
            lat.record(v);
        }
        reg.counter(
            "spoofwatch_runner_classified_flows_total",
            "test",
            &[("class", "valid")],
        )
        .add(40);
        reg.counter(
            "spoofwatch_runner_classified_flows_total",
            "test",
            &[("class", "bogon")],
        )
        .add(2);
        reg.counter(
            "spoofwatch_decode_faults_total",
            "test",
            &[("format", "ipfix"), ("kind", "bad_record")],
        )
        .add(3);
        reg.gauge("spoofwatch_runner_queue_depth", "test", &[]).set(0);
        reg.gauge("spoofwatch_rib_confidence", "test", &[]).set(1);

        let text = StudyReport::compute(&net, &trace, &classifier, &classes, None)
            .with_telemetry(reg.snapshot())
            .render();
        assert!(text.contains("## Telemetry"));
        assert!(text.contains("per-chunk classify latency: p50"));
        assert!(text.contains("(n=4)"));
        assert!(text.contains("bogon 2"));
        assert!(text.contains("valid 40"));
        assert!(text.contains("decode faults: 3 total"));
        assert!(text.contains("format=ipfix kind=bad_record: 3"));
        assert!(text.contains("queue depth at snapshot: 0"));
        assert!(text.contains("routing-table feed grade: degraded"));
    }

    #[test]
    fn shard_section_renders_degradation_caveats() {
        use spoofwatch_core::{LossAccounting, ShardPlan, ShardStatus, ShardStudyReport};
        let net = Internet::generate(InternetConfig::tiny(88));
        let trace = Trace::generate(&net, &TrafficConfig::tiny(8));
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let classes = classifier.classify_trace(
            &trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        );
        let report = StudyReport::compute(&net, &trace, &classifier, &classes, None);
        assert!(!report.render().contains("Distribution & shard health"));

        let shard_report = ShardStudyReport {
            plan: ShardPlan::new(3, 0xfeed),
            breakdown: MemberBreakdown {
                per_member: Default::default(),
            },
            ingest: Default::default(),
            disagreement: None,
            windows: Vec::new(),
            records: LossAccounting {
                offered: 100,
                processed: 60,
                shed: 0,
                quarantined: 0,
                lost: 40,
            },
            chunks: LossAccounting {
                offered: 30,
                processed: 20,
                shed: 0,
                quarantined: 0,
                lost: 10,
            },
            shards: vec![
                ShardStatus {
                    shard_id: 0,
                    completed: true,
                    committed_chunks: 10,
                    ..ShardStatus::default()
                },
                ShardStatus {
                    shard_id: 1,
                    completed: true,
                    committed_chunks: 10,
                    deaths: 1,
                    heartbeat_misses: 1,
                    ..ShardStatus::default()
                },
                ShardStatus {
                    shard_id: 2,
                    lost: true,
                    deaths: 4,
                    ..ShardStatus::default()
                },
            ],
        };
        assert!(shard_report.degraded());
        assert!(shard_report.reconciles());
        let text = StudyReport::compute(&net, &trace, &classifier, &classes, None)
            .with_shards(shard_report)
            .render();
        assert!(text.contains("## Distribution & shard health"));
        assert!(text.contains("plan: 3 shard(s)"));
        assert!(text.contains("shard 2: LOST"));
        assert!(text.contains("100 offered, 60 processed, 0 shed, 0 quarantined, 40 lost"));
        assert!(text.contains("offered == processed + shed + quarantined + lost): yes"));
        assert!(text.contains("*Caveat: shard 2/3 was lost after 4 death(s)"));
        assert!(text.contains("results are PARTIAL: 40 of 100 records lost"));
    }

    #[test]
    fn live_section_renders_session_telemetry_and_caveats() {
        use spoofwatch_core::{FlowAccounting, OverloadState};
        let net = Internet::generate(InternetConfig::tiny(88));
        let trace = Trace::generate(&net, &TrafficConfig::tiny(8));
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let classes = classifier.classify_trace(
            &trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        );
        let report = StudyReport::compute(&net, &trace, &classifier, &classes, None);
        assert!(!report.render().contains("## Live session"));

        let session = LiveSession {
            window: 8,
            chunk_records: 50,
            target_rps: 20_000,
            duration_ns: 2_500_000_000,
            achieved_records_per_sec: 12_000.0,
            final_state: OverloadState::Normal,
            time_in_state_ns: [2_000_000_000, 300_000_000, 150_000_000, 50_000_000],
            transitions: 6,
            shed_recoveries: 2,
            records: FlowAccounting {
                offered: 30_000,
                processed: 28_000,
                shed: 1_900,
                quarantined: 100,
            },
            chunks: FlowAccounting {
                offered: 600,
                processed: 600,
                shed: 0,
                quarantined: 0,
            },
            live_shed_records: 1_900,
            max_buffered_chunks: 8,
            credits_granted: 610,
            resumes_sent: 3,
            wire_faults: 7,
            protocol_faults: 2,
            producer_stalls: 1,
            consumer_stalls: 0,
            resumed_at_chunk: Some(120),
            producer_lost: false,
            stop_requested: true,
        };
        assert!(session.reconciles());
        let text = StudyReport::compute(&net, &trace, &classifier, &classes, None)
            .with_live(session)
            .render();
        assert!(text.contains("## Live session"));
        assert!(text.contains("50 records/chunk, target 20000 records/s"));
        assert!(text.contains("achieved 12000 records/s over 2.50s"));
        assert!(text.contains("graceful drain on stop request"));
        assert!(text.contains("80.0% normal"));
        assert!(text.contains("6 transition(s), 2 shed recovery(ies)"));
        assert!(text.contains("610 credit grant(s), 3 resume request(s)"));
        assert!(text.contains("peak buffer 8 of 8 chunk(s)"));
        assert!(text.contains("7 wire fault(s), 2 protocol fault(s)"));
        assert!(text.contains("resumed from checkpoint at chunk 120"));
        assert!(text.contains(
            "30000 offered, 28000 processed, 1900 shed (1900 at the live buffer), \
             100 quarantined"
        ));
        assert!(text.contains("offered == processed + shed + quarantined): yes"));
        assert!(text.contains("*Caveat: 1900 records were shed"));
        assert!(text.contains("*Caveat: stall watchdogs fired (1 producer, 0 consumer)"));
        assert!(text.contains("*Caveat: the link absorbed 7 wire faults"));
    }
}
