//! The order statistics behind every reported number.

use gm_perf::stats::*;

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(
        quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
        Some([1.5, 4.0, 12.0])
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated.
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn spread_is_the_quartile_distance_over_the_median() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(iqr_share(&v), Some(1.0));
    assert_eq!(iqr_share(&[5.0; 10]), Some(0.0));
    assert_eq!(iqr_share(&[0.0; 10]), None);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 100.0);
    assert_eq!(percentile(&v, 90.0), 180.0);
    assert_eq!(percentile(&v, 99.0), 198.0);
    assert_eq!(percentile(&v, 100.0), 200.0);
    assert_eq!(percentile(&[7.0], 90.0), 7.0);
    assert_eq!(percentile(&[], 90.0), 0.0);
}

#[test]
fn highest_percentile_keeps_ten_samples_beyond_it() {
    // 200 samples: p90 has 20 beyond, p95 has 10, p99 only 2.
    assert_eq!(samples_beyond(200, 90.0), 20);
    assert_eq!(samples_beyond(200, 95.0), 10);
    assert_eq!(samples_beyond(200, 99.0), 2);
    assert_eq!(highest_supported_percentile(200, 10), Some(95.0));
    assert_eq!(highest_supported_percentile(199, 10), Some(90.0));
    assert_eq!(highest_supported_percentile(1000, 10), Some(99.0));
    assert_eq!(highest_supported_percentile(20, 10), Some(50.0));
    // 7 batch jobs support no percentile at all, not even the median.
    assert_eq!(highest_supported_percentile(7, 10), None);
}

#[test]
fn summary_reports_extremes_and_count() {
    let s = summary(&[3.0, 9.0, 1.0]);
    assert_eq!((s.median, s.min, s.max, s.count), (3.0, 1.0, 9.0, 3));
    assert_eq!(s.tail, None);
    let many: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(summary(&many).tail, Some((95.0, 190.0)));
}
