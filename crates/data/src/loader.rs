//! Loading implicit feedback from delimited text files.
//!
//! The paper's datasets ship as `user item [rating] [timestamp]` text files
//! (MovieLens `::`-separated, TransCF's tab-separated dumps, …). This
//! module parses that family of formats into a [`Dataset`]:
//!
//! * arbitrary single-character delimiters (or ASCII whitespace),
//! * raw ids of any string form — remapped to dense `u32` indices in first-
//!   seen order (the mapping is returned for round-tripping),
//! * optional rating column with a threshold (the usual "ratings ≥ 4 count
//!   as implicit positives" binarization),
//! * optional timestamp column used to order each user's history before
//!   the leave-one-out split; files without timestamps keep line order
//!   (the paper randomizes in that case — line order with a shuffled file
//!   is equivalent and reproducible).
//!
//! Malformed lines are collected as warnings rather than silently dropped,
//! so data bugs surface.

use crate::dataset::Dataset;
use crate::ItemId;
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;

/// Column layout and parsing rules.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Field delimiter; `None` splits on ASCII whitespace.
    pub delimiter: Option<char>,
    /// 0-based column of the user id.
    pub user_col: usize,
    /// 0-based column of the item id.
    pub item_col: usize,
    /// Optional `(column, threshold)`: keep rows with `rating >= threshold`.
    pub rating: Option<(usize, f32)>,
    /// Optional timestamp column for chronological ordering.
    pub timestamp_col: Option<usize>,
    /// Lines starting with this prefix are skipped (headers/comments).
    pub comment_prefix: Option<String>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            delimiter: None,
            user_col: 0,
            item_col: 1,
            rating: None,
            timestamp_col: None,
            comment_prefix: Some("#".to_string()),
        }
    }
}

impl LoadOptions {
    /// MovieLens `.dat` layout: `user::item::rating::timestamp`, ratings
    /// ≥ 4 as positives. (`::` is a two-character separator; MovieLens
    /// files tokenize correctly by splitting on ':' and ignoring empties,
    /// which [`load_lines`] does for `delimiter: Some(':')`.)
    // audit:allow(orphan-pub) — outside input: real-dataset entry point, no bundled data calls it
    pub fn movielens() -> Self {
        Self {
            delimiter: Some(':'),
            user_col: 0,
            item_col: 1,
            rating: Some((2, 4.0)),
            timestamp_col: Some(3),
            comment_prefix: None,
        }
    }

    /// Tab-separated `user item` pairs (the TransCF data dumps).
    // audit:allow(orphan-pub) — outside input: real-dataset entry point, no bundled data calls it
    pub fn tsv_pairs() -> Self {
        Self {
            delimiter: Some('\t'),
            ..Self::default()
        }
    }
}

/// Result of a load: the split dataset, the id mappings, and any skipped
/// lines with reasons.
#[derive(Debug)]
pub struct Loaded {
    pub dataset: Dataset,
    /// Raw user id (as appearing in the file) per dense index.
    pub user_ids: Vec<String>,
    /// Raw item id per dense index.
    pub item_ids: Vec<String>,
    /// `(line_number, reason)` for every skipped line (1-based).
    pub warnings: Vec<(usize, String)>,
}

/// Loads a dataset from a file path. See [`load_lines`].
// audit:allow(orphan-pub) — outside input: real-dataset entry point, no bundled data calls it
pub fn load_path(
    name: impl Into<String>,
    path: &Path,
    opts: &LoadOptions,
) -> std::io::Result<Loaded> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let mut lines = Vec::new();
    // Workhorse-string read loop (perf-book): no allocation per line
    // beyond the retained copies.
    for line in reader.lines() {
        lines.push(line?);
    }
    Ok(load_lines(name, lines.iter().map(|s| s.as_str()), opts))
}

/// Parses an iterator of lines into a leave-one-out [`Dataset`].
pub fn load_lines<'a>(
    name: impl Into<String>,
    lines: impl Iterator<Item = &'a str>,
    opts: &LoadOptions,
) -> Loaded {
    let mut user_index: HashMap<String, u32> = HashMap::new();
    let mut item_index: HashMap<String, u32> = HashMap::new();
    let mut user_ids: Vec<String> = Vec::new();
    let mut item_ids: Vec<String> = Vec::new();
    let mut warnings: Vec<(usize, String)> = Vec::new();
    // (user, item, timestamp) events; timestamp defaults to arrival order.
    let mut events: Vec<(u32, u32, i64)> = Vec::new();

    let max_col = [
        Some(opts.user_col),
        Some(opts.item_col),
        opts.rating.map(|(c, _)| c),
        opts.timestamp_col,
    ]
    .into_iter()
    .flatten()
    .max()
    .unwrap_or(0);

    for (lineno, raw) in lines.enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(prefix) = &opts.comment_prefix {
            if line.starts_with(prefix.as_str()) {
                continue;
            }
        }
        let fields: Vec<&str> = match opts.delimiter {
            Some(d) => line.split(d).filter(|f| !f.is_empty()).collect(),
            None => line.split_ascii_whitespace().collect(),
        };
        if fields.len() <= max_col {
            warnings.push((
                lineno,
                format!("expected ≥ {} fields, got {}", max_col + 1, fields.len()),
            ));
            continue;
        }
        if let Some((col, threshold)) = opts.rating {
            match fields[col].parse::<f32>() {
                Ok(r) if r >= threshold => {}
                Ok(_) => continue, // below threshold: a valid non-positive
                Err(_) => {
                    warnings.push((lineno, format!("bad rating '{}'", fields[col])));
                    continue;
                }
            }
        }
        let ts = match opts.timestamp_col {
            None => events.len() as i64,
            Some(col) => match fields[col].parse::<i64>() {
                Ok(t) => t,
                Err(_) => {
                    warnings.push((lineno, format!("bad timestamp '{}'", fields[col])));
                    continue;
                }
            },
        };
        let u = *user_index
            .entry(fields[opts.user_col].to_string())
            .or_insert_with(|| {
                user_ids.push(fields[opts.user_col].to_string());
                (user_ids.len() - 1) as u32
            });
        let v = *item_index
            .entry(fields[opts.item_col].to_string())
            .or_insert_with(|| {
                item_ids.push(fields[opts.item_col].to_string());
                (item_ids.len() - 1) as u32
            });
        events.push((u, v, ts));
    }

    // Chronological per-user histories (stable sort keeps arrival order on
    // timestamp ties).
    events.sort_by_key(|&(_, _, t)| t);
    let mut histories: Vec<Vec<ItemId>> = vec![Vec::new(); user_ids.len()];
    for &(u, v, _) in &events {
        histories[u as usize].push(v);
    }
    let dataset =
        Dataset::leave_one_out(name, user_ids.len(), item_ids.len(), &histories, vec![], 0);
    Loaded {
        dataset,
        user_ids,
        item_ids,
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_pairs_roundtrip() {
        let text = [
            "alice item1",
            "alice item2",
            "bob item2",
            "alice item3",
            "alice item4",
        ];
        let loaded = load_lines("t", text.into_iter(), &LoadOptions::default());
        assert!(loaded.warnings.is_empty());
        assert_eq!(loaded.user_ids, vec!["alice", "bob"]);
        assert_eq!(loaded.item_ids, vec!["item1", "item2", "item3", "item4"]);
        // Alice has 4 items: last → test, second-to-last → dev.
        let d = &loaded.dataset;
        assert_eq!(d.test.len(), 1);
        assert_eq!(d.test[0].item, 3); // item4
        assert_eq!(d.dev[0].item, 2); // item3
        assert!(d.train.contains(0, 0) && d.train.contains(0, 1));
        // Bob's short history stays fully in train.
        assert!(d.train.contains(1, 1));
    }

    #[test]
    fn movielens_format_with_rating_threshold_and_timestamps() {
        // user::item::rating::timestamp — out-of-order timestamps and one
        // below-threshold rating.
        let text = [
            "1::10::5::300",
            "1::11::2::100", // rating below threshold: dropped, no warning
            "1::12::4::100",
            "1::13::4::200",
            "1::14::5::50",
        ];
        let loaded = load_lines("ml", text.into_iter(), &LoadOptions::movielens());
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        let d = &loaded.dataset;
        // Chronological order: 14(t=50), 12(t=100), 13(t=200), 10(t=300).
        // So test = item "10", dev = item "13".
        let test_raw = &loaded.item_ids[d.test[0].item as usize];
        let dev_raw = &loaded.item_ids[d.dev[0].item as usize];
        assert_eq!(test_raw, "10");
        assert_eq!(dev_raw, "13");
    }

    #[test]
    fn malformed_lines_produce_warnings_not_corruption() {
        let text = ["a 1", "broken", "b 2", "c notanumber extra", "a 2", "a 3"];
        let opts = LoadOptions::default();
        let loaded = load_lines("w", text.into_iter(), &opts);
        // "broken" has 1 field → warning; "c notanumber extra" parses fine
        // as user=c item=notanumber (no rating column).
        assert_eq!(loaded.warnings.len(), 1);
        assert_eq!(loaded.warnings[0].0, 2);
        assert_eq!(
            loaded.dataset.train.num_interactions()
                + loaded.dataset.dev.len()
                + loaded.dataset.test.len(),
            5
        );
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = ["# header", "", "u1 i1", "  ", "u1 i2"];
        let loaded = load_lines("c", text.into_iter(), &LoadOptions::default());
        assert!(loaded.warnings.is_empty());
        assert_eq!(loaded.dataset.train.num_interactions(), 2);
    }

    #[test]
    fn bad_rating_and_timestamp_are_warned() {
        let opts = LoadOptions {
            delimiter: Some(','),
            rating: Some((2, 1.0)),
            timestamp_col: Some(3),
            ..LoadOptions::default()
        };
        let text = ["u,i,notafloat,1", "u,j,2.0,notatime", "u,k,2.0,5"];
        let loaded = load_lines("b", text.into_iter(), &opts);
        assert_eq!(loaded.warnings.len(), 2);
        assert_eq!(
            loaded.dataset.train.num_interactions()
                + loaded.dataset.dev.len()
                + loaded.dataset.test.len(),
            1
        );
    }

    #[test]
    fn load_path_reads_files() {
        let mut path = std::env::temp_dir();
        path.push(format!("mars-loader-test-{}.txt", std::process::id()));
        std::fs::write(&path, "u1 i1\nu1 i2\nu2 i1\n").unwrap();
        let loaded = load_path("f", &path, &LoadOptions::default()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.user_ids.len(), 2);
        assert_eq!(loaded.item_ids.len(), 2);
    }
}
