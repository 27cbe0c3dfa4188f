//! The harness's own span recorder. This PR may not instrument the
//! program, so every span is opened here, around a call into a layer's
//! public entry point. Spans live in memory until the run ends and are
//! written as Chrome trace-event JSON — the viewer `vpce-trace` output
//! already loads in.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed call: which layer (crate directory) it entered, when, and
/// which span caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    /// `<layer>.<call>`; metric `<name>_s` is the summed duration of
    /// the spans of that name.
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// All spans of one traced run, in opening order.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    list: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Time `f` as a span of `layer`, child of whichever span is open.
    pub fn scope<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let id = self.list.len();
        let parent = self.open.last().copied();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.list.push(Span {
            layer,
            name,
            start_s,
            end_s: start_s,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.list[id].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    #[cfg(test)]
    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Summed duration of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Summed durations by span name.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.list {
            *out.entry(s.name).or_insert(0.0) += s.dur();
        }
        out
    }

    /// A layer's self time: each of its spans minus the part covered
    /// by that span's children.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_time[p] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.list.iter().zip(child_time) {
            *out.entry(s.layer).or_insert(0.0) += s.dur() - covered;
        }
        out
    }

    /// Share of the spans called `root` that their direct children
    /// account for (1.0 when there is no such span).
    pub fn coverage(&self, root: &str) -> f64 {
        let (mut total, mut covered) = (0.0, 0.0);
        for (i, s) in self.list.iter().enumerate() {
            if s.name == root {
                total += s.dur();
                covered += self
                    .list
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(Span::dur)
                    .sum::<f64>();
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            1.0
        }
    }

    /// Chrome trace events: one complete (`X`) event per span on lane
    /// `tid`, nesting by time; `args` carry the span id, its parent and
    /// the workload id all spans of a run share.
    pub fn chrome_events(&self, workload: &str, tid: u32, lane: &str) -> Vec<Json> {
        let name_lane = Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(f64::from(tid))),
            ("args", Json::obj([("name", Json::str(lane))])),
        ]);
        let spans = self.list.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_s * 1e6)),
                ("dur", Json::Num(s.dur() * 1e6)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(tid))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("workload", Json::str(workload)),
                    ]),
                ),
            ])
        });
        std::iter::once(name_lane).chain(spans).collect()
    }
}

/// A Chrome trace-event document (loads in ui.perfetto.dev, like the
/// traces `vpcec --trace` writes).
pub fn chrome_trace(events: Vec<Json>) -> Json {
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_self_time_and_coverage() {
        let mut spans = Spans::default();
        spans.scope("core", "core.pipeline", |s| {
            s.scope("polaris-fe", "polaris-fe.compile", |_| spin(300));
            s.scope("polaris-be", "polaris-be.plan", |s| {
                spin(200);
                s.scope("lmad", "lmad.lower", |_| spin(400));
            });
        });
        let list = spans.list();
        assert_eq!(list.len(), 4);
        assert_eq!(list[0].parent, None);
        assert_eq!(list[1].parent, Some(0));
        assert_eq!(list[3].parent, Some(2));
        assert!(list[3].dur() >= 400e-6);

        let own = spans.self_time_by_layer();
        // The planner's self time excludes the nested lmad call.
        assert!(own["polaris-be"] >= 200e-6 && own["polaris-be"] < list[2].dur());
        assert!(own["lmad"] >= 400e-6);
        let sum: f64 = own.values().sum();
        assert!(
            (sum - list[0].dur()).abs() < 1e-9,
            "self times tile the root"
        );

        let cov = spans.coverage("core.pipeline");
        assert!(cov > 0.5 && cov <= 1.0, "{cov}");
        assert_eq!(spans.coverage("absent"), 1.0);
        assert!((spans.total("lmad.lower") - list[3].dur()).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_parses_and_carries_parent_and_workload() {
        let mut spans = Spans::default();
        spans.scope("sched", "sched.batch", |s| {
            s.scope("sched", "sched.parse", |_| ())
        });
        let text = chrome_trace(spans.chrome_events("job_storm", 1, "pipeline")).to_pretty();
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // One lane-name record, then the two spans.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            args.get("workload").and_then(Json::as_str),
            Some("job_storm")
        );
        assert_eq!(
            events[1].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
