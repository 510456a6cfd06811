//! On-disk scenario descriptions: the deployment files `rtmac-netd`,
//! `rtmac emulate` and the `rtmac` subcommands `run`, `compare` and
//! `sweep` load through [`load`].
//!
//! Every node of a deployment must construct an *identical* [`Scenario`]
//! — the handshake digests it — so `--scenario` accepts either a registry
//! name (`rtmac::scenario::by_name`) or a file in a deliberately tiny
//! `key = value` format that [`render`] and [`parse`] round-trip exactly:
//! `parse(&render(sc)?)? == sc` for every renderable scenario, and
//! rendering refuses (with [`NetError::Unsupported`]) any scenario the
//! format cannot represent losslessly (fault injection, admission
//! control, tracking, multi-replication runs, non-default policy
//! parameterizations).
//!
//! This module owns only the framing. The values are the spellings of
//! [`Param::parse`], [`TrafficSpec::parse`] and [`PolicySpec::parse`] —
//! the same grammar the CLI's `--arrivals` and `--policy` flags take.
//!
//! ```text
//! # one key per line; '#' starts a comment
//! links = 10
//! deadline_us = 2000
//! payload_bytes = 100
//! success = 0.9            # or a comma list: 0.9,0.8,... (one link: 0.9,)
//! traffic = bernoulli:0.6  # or burst:0.25 | burst:0.25:6 | constant
//! ratio = 0.99
//! policy = db-dp           # db-dp | db-dp:pairs=K | ldf | eldf | fcsma
//!                          #   | dcf | frame-csma | frame-csma:slots=S | fixed
//! intervals = 1000
//! seed = 2018
//! engine = timeline        # timeline | batched (optional, inert label)
//! ```

use rtmac::scenario::{by_name, EngineSpec, Param, Scenario, TrafficSpec};
use rtmac::PolicySpec;

use crate::error::NetError;

/// Renders a scenario to the file format.
///
/// # Errors
///
/// Returns [`NetError::Unsupported`] when the scenario uses features the
/// format cannot represent (see the module docs) — rendering such a
/// scenario lossily would let two nodes silently run different
/// experiments.
///
/// # Example
///
/// ```
/// use rtmac_net::scenario_file;
///
/// let sc = rtmac::scenario::by_name("control10").unwrap();
/// let text = scenario_file::render(&sc).unwrap();
/// assert!(text.contains("links = 10"));
/// ```
pub fn render(sc: &Scenario) -> Result<String, NetError> {
    if sc.fault.is_some() {
        return Err(unsupported("fault injection"));
    }
    if sc.admission.is_some() {
        return Err(unsupported("admission control"));
    }
    if sc.track.is_some() {
        return Err(unsupported("throughput tracking"));
    }
    if sc.replications != 1 {
        return Err(unsupported("multiple replications"));
    }
    let param = |p: &Param| {
        p.render()
            .ok_or_else(|| unsupported("an empty per-link list"))
    };
    let fields = [
        ("links", sc.links.to_string()),
        ("deadline_us", sc.deadline_us.to_string()),
        ("payload_bytes", sc.payload_bytes.to_string()),
        ("success", param(&sc.success)?),
        (
            "traffic",
            sc.traffic
                .render()
                .ok_or_else(|| unsupported("an empty per-link list"))?,
        ),
        ("ratio", param(&sc.ratio)?),
        (
            "policy",
            sc.policy
                .render()
                .ok_or_else(|| unsupported("a non-default policy parameterization"))?,
        ),
        ("intervals", sc.intervals.to_string()),
        ("seed", sc.seed.to_string()),
        ("engine", sc.engine.label().to_string()),
    ];
    let mut out = String::from("# rtmac-netd scenario\n");
    for (key, value) in fields {
        out.push_str(key);
        out.push_str(" = ");
        out.push_str(&value);
        out.push('\n');
    }
    Ok(out)
}

fn unsupported(what: &str) -> NetError {
    NetError::Unsupported(format!(
        "{what} cannot be expressed in the scenario file format"
    ))
}

/// Parses the file format back into a scenario (named `"custom"`).
///
/// # Errors
///
/// Returns [`NetError::Parse`] with the offending line number for unknown
/// keys, bad values, or missing required keys.
///
/// # Example
///
/// ```
/// use rtmac_net::scenario_file;
///
/// let sc = rtmac::scenario::by_name("video20").unwrap();
/// let back = scenario_file::parse(&scenario_file::render(&sc).unwrap()).unwrap();
/// assert_eq!(back.name, "custom");
/// assert_eq!(back.links, sc.links);
/// ```
pub fn parse(text: &str) -> Result<Scenario, NetError> {
    const KEYS: [&str; 10] = [
        "links",
        "deadline_us",
        "payload_bytes",
        "success",
        "traffic",
        "ratio",
        "policy",
        "intervals",
        "seed",
        "engine",
    ];
    let kv = KeyValues::read("scenario file", text, &KEYS)?;
    let engine = |v: &str| {
        [EngineSpec::Timeline, EngineSpec::Batched]
            .into_iter()
            .find(|e| e.label() == v)
    };
    Ok(Scenario {
        name: "custom",
        links: kv.integer("links")?,
        deadline_us: kv.integer("deadline_us")?,
        payload_bytes: kv.integer("payload_bytes")?,
        success: kv.value("success", Param::parse, Param::GRAMMAR)?,
        traffic: kv.value("traffic", TrafficSpec::parse, TrafficSpec::GRAMMAR)?,
        ratio: kv.value("ratio", Param::parse, Param::GRAMMAR)?,
        policy: kv.value("policy", PolicySpec::parse, PolicySpec::GRAMMAR)?,
        intervals: kv.integer("intervals")?,
        seed: kv.integer("seed")?,
        replications: 1,
        track: None,
        fault: None,
        admission: None,
        engine: kv
            .optional("engine", engine, "timeline or batched")?
            .unwrap_or_default(),
    })
}

/// A `key = value` text read into one slot per expected key: the line
/// reader behind scenario files and the emulation harness's child
/// reports. Blank lines and `#` comments are skipped; a line without `=`
/// or with an unexpected key is an error naming its line; a repeated key
/// keeps its last value.
pub(crate) struct KeyValues<'a> {
    source: &'static str,
    keys: &'a [&'a str],
    /// `(line, value)` per entry of `keys`.
    slots: Vec<Option<(usize, &'a str)>>,
}

impl<'a> KeyValues<'a> {
    /// Reads `text` (a `source`, e.g. `"scenario file"`, for messages),
    /// accepting exactly the keys in `keys`.
    pub(crate) fn read(
        source: &'static str,
        text: &'a str,
        keys: &'a [&'a str],
    ) -> Result<Self, NetError> {
        let mut slots = vec![None; keys.len()];
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(parse_err(source, line, "expected `key = value`"));
            };
            let key = key.trim();
            let Some(slot) = keys.iter().position(|&k| k == key) else {
                return Err(parse_err(source, line, &format!("unknown key `{key}`")));
            };
            slots[slot] = Some((line, value.trim()));
        }
        Ok(KeyValues {
            source,
            keys,
            slots,
        })
    }

    /// The value of an optional key through `parse`; a value `parse`
    /// refuses is an error naming the key, the value and `expected`.
    pub(crate) fn optional<T>(
        &self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
        expected: &str,
    ) -> Result<Option<T>, NetError> {
        let slot = self.keys.iter().position(|&k| k == key);
        let Some((line, value)) = slot.and_then(|s| self.slots[s]) else {
            return Ok(None);
        };
        parse(value).map(Some).ok_or_else(|| {
            parse_err(
                self.source,
                line,
                &format!("bad {key} value `{value}` (expected {expected})"),
            )
        })
    }

    /// As [`KeyValues::optional`], but a missing key is an error too.
    pub(crate) fn value<T>(
        &self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
        expected: &str,
    ) -> Result<T, NetError> {
        self.optional(key, parse, expected)?
            .ok_or_else(|| parse_err(self.source, 0, &format!("missing required key `{key}`")))
    }

    /// A required unsigned-integer key.
    pub(crate) fn integer<T: std::str::FromStr>(&self, key: &str) -> Result<T, NetError> {
        self.value(key, |v| v.parse().ok(), "an unsigned integer")
    }
}

fn parse_err(source: &str, line: usize, detail: &str) -> NetError {
    let msg = if line == 0 {
        format!("{source}: {detail}")
    } else {
        format!("{source} line {line}: {detail}")
    };
    NetError::Parse { line, msg }
}

/// Resolves a `--scenario` value: a registry name first, then a file
/// path.
///
/// # Errors
///
/// Returns [`NetError::Config`] when `spec` is neither a registry name
/// nor a readable file (a deployment mistake, which `rtmac-netd` reports
/// with exit code 2) and [`NetError::Parse`] when the file's contents do
/// not parse.
///
/// # Example
///
/// ```
/// use rtmac_net::scenario_file;
///
/// assert_eq!(scenario_file::load("control10").unwrap().links, 10);
/// assert!(scenario_file::load("/no/such/file").is_err());
/// ```
pub fn load(spec: &str) -> Result<Scenario, NetError> {
    if let Some(sc) = by_name(spec) {
        return Ok(sc);
    }
    let text = std::fs::read_to_string(spec).map_err(|e| {
        NetError::Config(format!(
            "`{spec}` is neither a registry scenario nor a readable file: {e}"
        ))
    })?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac::scenario;

    #[test]
    fn every_registry_scenario_round_trips_or_is_rejected() {
        for name in scenario::NAMES {
            let sc = scenario::by_name(name).unwrap();
            match render(&sc) {
                Ok(text) => {
                    let back = parse(&text).unwrap();
                    let mut canonical = sc.clone();
                    canonical.name = "custom";
                    assert_eq!(back, canonical, "{name} did not round-trip");
                }
                Err(NetError::Unsupported(_)) => {
                    // Fault/admission scenarios are rejected by design.
                    assert!(
                        sc.fault.is_some() || sc.admission.is_some() || sc.track.is_some(),
                        "{name} was rejected without cause"
                    );
                }
                Err(e) => panic!("{name}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn the_checked_in_example_parses_and_round_trips() {
        let sc = parse(include_str!("../../../examples/control10.scenario")).unwrap();
        assert_eq!((sc.links, sc.intervals, sc.seed), (10, 200, 2018));
        assert_eq!(sc.policy, PolicySpec::db_dp());
        assert!(sc.network().is_ok());
        assert_eq!(parse(&render(&sc).unwrap()).unwrap(), sc);
    }

    #[test]
    fn bad_inputs_name_their_line() {
        let err = parse("links = 3\nwat\n").unwrap_err();
        assert!(matches!(err, NetError::Parse { line: 2, .. }));
        assert_eq!(
            err.to_string(),
            "scenario file line 2: expected `key = value`"
        );
        let err = parse("nonsense = 1\n").unwrap_err();
        assert!(matches!(err, NetError::Parse { line: 1, .. }));
        // Missing keys are reported too.
        assert!(matches!(parse("links = 3\n"), Err(NetError::Parse { .. })));
        // A bad value names its key, its value and the grammar.
        let text = render(&scenario::by_name("tiny").unwrap())
            .unwrap()
            .replace("policy = db-dp", "policy = tdma");
        let msg = parse(&text).unwrap_err().to_string();
        assert!(
            msg.contains("policy") && msg.contains("`tdma`") && msg.contains("frame-csma"),
            "{msg}"
        );
    }

    #[test]
    fn unsupported_features_refuse_to_render() {
        let sc = scenario::by_name("tiny")
            .unwrap()
            .with_fault(rtmac::FaultSpec::sensing(0.01));
        assert!(matches!(render(&sc), Err(NetError::Unsupported(_))));
        let sc = scenario::by_name("tiny").unwrap().with_replications(5);
        assert!(matches!(render(&sc), Err(NetError::Unsupported(_))));
        let sc = scenario::by_name("tiny")
            .unwrap()
            .with_policy(rtmac::PolicySpec::DbDp {
                influence: rtmac::scenario::InfluenceSpec::Linear,
                r: 10.0,
                swap_pairs: 1,
            });
        assert!(matches!(render(&sc), Err(NetError::Unsupported(_))));
    }

    #[test]
    fn load_prefers_the_registry() {
        assert_eq!(load("video20").unwrap().name, "video20");
        assert!(matches!(load("/no/such/file"), Err(NetError::Config(_))));
    }
}
