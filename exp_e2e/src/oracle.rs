//! Reference answers. Every answer the system gives during a run is
//! compared, after the timed region, with one computed here in the
//! clear: by the centralized auditor (paper Fig. 1) fed the same
//! records, or by evaluating the same criteria record by record.

use dla_audit::centralized::CentralizedAuditor;
use dla_audit::plan::TimeWindow;
use dla_logstore::model::{AttrName, AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use std::fmt::Debug;

/// `Ok` when `got == want`, else a message naming the answer.
pub fn same<T: PartialEq + Debug>(what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, oracle says {want:?}"))
    }
}

/// `Ok` when two sorted key lists agree, else a message with the first
/// disagreement (answer lists run to thousands of entries).
pub fn same_set(what: &str, got: &[u64], want: &[u64]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let first = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what}: {} answers vs oracle {}, first difference at position {first}",
        got.len(),
        want.len()
    ))
}

/// The keys of the records satisfying `criteria`, in input order.
pub fn matching<'a>(
    schema: &Schema,
    criteria: &str,
    records: impl IntoIterator<Item = (u64, &'a LogRecord)>,
) -> Result<Vec<u64>, String> {
    let parsed = dla_audit::parser::parse(criteria, schema).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (key, record) in records {
        if parsed.eval(record).map_err(|e| e.to_string())? {
            out.push(key);
        }
    }
    Ok(out)
}

/// Integer value of a numeric attribute (hundredths for fixed-point).
pub fn numeric(record: &LogRecord, attr: &AttrName) -> Option<i64> {
    match record.get(attr)? {
        AttrValue::Int(v) => Some(*v),
        AttrValue::Fixed2(v) => Some(*v),
        _ => None,
    }
}

/// Count and sum of `sum_attr` over the records whose `attr` equals
/// the text `value` and whose `time` lies in `window`.
pub fn bucket<'a>(
    records: impl IntoIterator<Item = &'a LogRecord>,
    attr: &AttrName,
    value: &str,
    sum_attr: &AttrName,
    window: &TimeWindow,
) -> (u64, i64) {
    let time = AttrName::new("time");
    let mut count = 0;
    let mut sum = 0;
    for r in records {
        let Some(AttrValue::Time(t)) = r.get(&time) else {
            continue;
        };
        let inside = window.lo.is_none_or(|lo| *t >= lo) && window.hi.is_none_or(|hi| *t <= hi);
        if inside && r.get(attr) == Some(&AttrValue::text(value)) {
            count += 1;
            sum += numeric(r, sum_attr).unwrap_or(0);
        }
    }
    (count, sum)
}

/// The centralized auditor fed `records` in order, for glsn-exact
/// comparison with a single cluster that logged the same records.
pub fn centralized(schema: &Schema, records: &[LogRecord]) -> Result<CentralizedAuditor, String> {
    let mut auditor = CentralizedAuditor::new(schema.clone(), 1);
    let user = auditor.register_user().map_err(|e| e.to_string())?;
    for r in records {
        auditor.log_record(user, r).map_err(|e| e.to_string())?;
    }
    Ok(auditor)
}

/// The centralized auditor's answer to `criteria`, as raw glsns.
pub fn centralized_query(
    auditor: &mut CentralizedAuditor,
    criteria: &str,
) -> Result<Vec<u64>, String> {
    let glsns: Vec<Glsn> = auditor.query_text(criteria).map_err(|e| e.to_string())?;
    Ok(glsns.iter().map(|g| g.0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_logstore::gen::{generate, WorkloadConfig};
    use rand::SeedableRng;

    fn records() -> Vec<LogRecord> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        generate(
            &WorkloadConfig {
                records: 60,
                ..WorkloadConfig::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn oracle_flags_a_perturbed_reference_answer() {
        let schema = Schema::paper_example();
        let data = records();
        let mut auditor = centralized(&schema, &data).unwrap();
        let criteria = "protocol = 'UDP' AND c1 > 20";
        let reference = centralized_query(&mut auditor, criteria).unwrap();
        assert!(!reference.is_empty());
        // Record-by-record evaluation agrees with the auditor.
        let by_eval: Vec<u64> = matching(
            &schema,
            criteria,
            auditor.read_everything().map(|(g, r)| (g.0, r)),
        )
        .unwrap();
        assert!(same_set("query", &by_eval, &reference).is_ok());

        let mut dropped = reference.clone();
        dropped.pop();
        assert!(same_set("query", &dropped, &reference).is_err());
        let mut shifted = reference.clone();
        shifted[0] += 1;
        assert!(same_set("query", &shifted, &reference).is_err());
        assert!(same("count", &(reference.len() + 1), &reference.len()).is_err());
    }

    #[test]
    fn bucket_respects_the_window_edges() {
        let data = records();
        let t0 = match data[10].get(&"time".into()) {
            Some(AttrValue::Time(t)) => *t,
            _ => unreachable!(),
        };
        let all = bucket(
            &data,
            &"protocol".into(),
            "UDP",
            &"c1".into(),
            &TimeWindow::unbounded(),
        );
        let early = TimeWindow {
            lo: None,
            hi: Some(t0),
        };
        let late = TimeWindow {
            lo: Some(t0 + 1),
            hi: None,
        };
        let a = bucket(&data, &"protocol".into(), "UDP", &"c1".into(), &early);
        let b = bucket(&data, &"protocol".into(), "UDP", &"c1".into(), &late);
        assert_eq!((a.0 + b.0, a.1 + b.1), all);
    }
}
