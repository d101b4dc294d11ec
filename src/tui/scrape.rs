//! One tick of telemetry: fetching and parsing the scrape endpoints.
//!
//! A [`Sample`] is everything `intersect-top` learns in one poll. Live
//! mode builds it with [`Sample::scrape`]; tests build the identical
//! structure from captured endpoint bodies with [`Sample::from_bodies`],
//! so the reducer and renderer never know whether a server was involved.

use intersect_obs::serve::http_get;
use std::collections::BTreeMap;
use std::net::SocketAddr;

/// Parsed Prometheus text exposition: full series key (name plus label
/// set, exactly as exported) to value. Comment lines (`# HELP`,
/// `# TYPE`) and summary quantile lines are kept out of the map only if
/// malformed; everything parseable is retained.
pub type MetricsMap = BTreeMap<String, f64>;

/// Everything one poll of the telemetry plane produced. Fields are
/// `None`/empty when the corresponding endpoint was unreachable or
/// returned an unparseable body — the reducer treats that as "no new
/// information", not an error.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Parsed `/metrics` series.
    pub metrics: MetricsMap,
    /// Parsed `/sessions` document.
    pub sessions: Option<serde_json::Value>,
    /// Parsed `/version` identity.
    pub version: Option<serde_json::Value>,
    /// `/healthz` status code and body.
    pub health: Option<(u16, String)>,
    /// `true` when at least one endpoint answered.
    pub reachable: bool,
}

impl Sample {
    /// Builds a sample from captured endpoint bodies (the fixture path:
    /// no server, no sockets, fully deterministic).
    pub fn from_bodies(
        metrics: &str,
        sessions: &str,
        version: &str,
        health: Option<(u16, &str)>,
    ) -> Sample {
        Sample {
            metrics: parse_metrics(metrics),
            sessions: serde_json::from_str(sessions).ok(),
            version: serde_json::from_str(version).ok(),
            health: health.map(|(code, body)| (code, body.to_string())),
            reachable: true,
        }
    }

    /// Polls every endpoint once. Endpoint failures degrade to `None`
    /// fields rather than erroring: a dashboard must keep rendering
    /// through a server restart.
    pub fn scrape(addr: SocketAddr) -> Sample {
        let get = |path: &str| http_get(addr, path).ok();
        let body_if_ok = |resp: Option<(u16, String)>| match resp {
            Some((200, body)) => Some(body),
            _ => None,
        };
        let metrics = body_if_ok(get("/metrics"));
        let sessions = body_if_ok(get("/sessions"));
        let version = body_if_ok(get("/version"));
        let health = get("/healthz");
        let reachable =
            metrics.is_some() || sessions.is_some() || version.is_some() || health.is_some();
        Sample {
            metrics: metrics.as_deref().map(parse_metrics).unwrap_or_default(),
            sessions: sessions.and_then(|b| serde_json::from_str(&b).ok()),
            version: version.and_then(|b| serde_json::from_str(&b).ok()),
            health,
            reachable,
        }
    }

    /// Sum of every series whose base name (the part before `{`) equals
    /// `base` — how labelled counters like `conformance_violations_total`
    /// are totalled.
    pub fn metric_sum(&self, base: &str) -> f64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.as_str() == base || k.starts_with(&format!("{base}{{")))
            .map(|(_, v)| v)
            .sum()
    }

    /// The value of one exact series key, or 0.
    pub fn metric(&self, key: &str) -> f64 {
        self.metrics.get(key).copied().unwrap_or(0.0)
    }
}

/// Parses Prometheus text exposition into a [`MetricsMap`]. Tolerant by
/// design: unknown lines are skipped, label sets are kept verbatim as
/// part of the key.
pub fn parse_metrics(text: &str) -> MetricsMap {
    let mut out = MetricsMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name{labels} value` or `name value`; the value is the last
        // whitespace-separated token, the key everything before it.
        let Some((key, value)) = line.rsplit_once(char::is_whitespace) else {
            continue;
        };
        if let Ok(v) = value.parse::<f64>() {
            out.insert(key.trim().to_string(), v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_parsing_keeps_labels_and_skips_comments() {
        let text = "# HELP up Server is up\n# TYPE up gauge\nup 1\n\
                    requests_total{path=\"/metrics\"} 7\n\
                    requests_total{path=\"/healthz\"} 3\n\
                    latency{quantile=\"0.99\"} 1500\n\
                    garbage line without number trailing\n";
        let m = parse_metrics(text);
        assert_eq!(m.get("up"), Some(&1.0));
        assert_eq!(m.get("requests_total{path=\"/metrics\"}"), Some(&7.0));
        assert_eq!(m.get("latency{quantile=\"0.99\"}"), Some(&1500.0));
        assert!(!m.contains_key("garbage"));
    }

    #[test]
    fn metric_sum_totals_labelled_series_without_prefix_collisions() {
        let sample = Sample::from_bodies(
            "conformance_violations_total{protocol=\"sqrt\"} 2\n\
             conformance_violations_total{protocol=\"iblt\"} 1\n\
             conformance_violations_total_other 100\n",
            "{}",
            "{}",
            None,
        );
        assert_eq!(sample.metric_sum("conformance_violations_total"), 3.0);
        assert_eq!(
            sample.metric_sum("conformance_violations_total_other"),
            100.0
        );
        assert_eq!(
            sample.metric("conformance_violations_total{protocol=\"iblt\"}"),
            1.0
        );
    }

    #[test]
    fn unparseable_bodies_degrade_to_none() {
        let sample = Sample::from_bodies("", "not json", "", Some((503, "degraded\n")));
        assert!(sample.sessions.is_none());
        assert!(sample.version.is_none());
        assert_eq!(sample.health.as_ref().unwrap().0, 503);
        assert!(sample.reachable);
    }
}
