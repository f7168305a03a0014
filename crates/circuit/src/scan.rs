//! Scan (prefix sums) and segmented scan circuits (Sec. 5.1, Alg. 4).

use crate::{Builder, WireId};

/// A binary combining operator over wire vectors, as used by the scan
/// circuits: `op(builder, a, x) = a ⊕ x`.
pub type ScanOp<'a> = &'a mut dyn FnMut(&mut Builder, &[WireId], &[WireId]) -> Vec<WireId>;

/// The classical `⊕`-scan circuit (Hillis–Steele, Alg. 4): given elements
/// `x_1..x_K` (each a wire vector) and an associative operator, produces
/// the inclusive prefix combination at every position. `O(K log K)`
/// applications of `⊕`, `O(log K)` levels.
///
/// `op(b, a, x)` must combine `a ⊕ x` into a new wire vector of the same
/// shape.
pub fn scan(b: &mut Builder, elems: &[Vec<WireId>], op: ScanOp<'_>) -> Vec<Vec<WireId>> {
    let n = elems.len();
    let mut cur: Vec<Vec<WireId>> = elems.to_vec();
    let mut offset = 1usize;
    while offset < n {
        let prev = cur.clone();
        for j in offset..n {
            cur[j] = op(b, &prev[j - offset], &prev[j]);
        }
        offset *= 2;
    }
    cur
}

/// The `⊕̄`-segmented scan (Sec. 5.1): prefix combinations restarted at
/// every change of `key`. Implemented exactly as in the paper by running a
/// plain scan with the derived operator
/// `(a₁,b₁) ⊕̄ (a₂,b₂) = (a₂, a₁=a₂ ? b₁⊕b₂ : b₂)`,
/// which is associative.
pub fn segmented_scan(
    b: &mut Builder,
    keys: &[Vec<WireId>],
    vals: &[Vec<WireId>],
    op: ScanOp<'_>,
) -> Vec<Vec<WireId>> {
    assert_eq!(
        keys.len(),
        vals.len(),
        "segmented scan key/value length mismatch"
    );
    let n = keys.len();
    if n == 0 {
        return Vec::new();
    }
    let klen = keys[0].len();
    // element = key ++ val
    let elems: Vec<Vec<WireId>> = keys
        .iter()
        .zip(vals.iter())
        .map(|(k, v)| {
            let mut e = k.clone();
            e.extend_from_slice(v);
            e
        })
        .collect();
    let mut barred = |b: &mut Builder, a: &[WireId], x: &[WireId]| -> Vec<WireId> {
        let (ka, va) = a.split_at(klen);
        let (kx, vx) = x.split_at(klen);
        let same = b.vec_eq(ka, kx);
        let combined = op(b, va, vx);
        let picked = b.vec_mux(same, &combined, vx);
        let mut e = kx.to_vec();
        e.extend(picked);
        e
    };
    scan(b, &elems, &mut barred)
        .into_iter()
        .map(|e| e[klen..].to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_scan_matches_prefix_sums() {
        let mut b = Builder::new();
        let xs: Vec<Vec<WireId>> = (0..7).map(|_| vec![b.input()]).collect();
        let out = scan(&mut b, &xs, &mut |b, a, x| vec![b.add(a[0], x[0])]);
        let c = b.finish(out.into_iter().map(|v| v[0]).collect());
        let res = c.evaluate(&[3, 1, 4, 1, 5, 9, 2]).unwrap();
        assert_eq!(res, vec![3, 4, 8, 9, 14, 23, 25]);
    }

    #[test]
    fn max_scan() {
        let mut b = Builder::new();
        let xs: Vec<Vec<WireId>> = (0..5).map(|_| vec![b.input()]).collect();
        let out = scan(&mut b, &xs, &mut |b, a, x| {
            let gt = b.lt(x[0], a[0]);
            vec![b.mux(gt, a[0], x[0])]
        });
        let c = b.finish(out.into_iter().map(|v| v[0]).collect());
        assert_eq!(c.evaluate(&[2, 7, 1, 6, 9]).unwrap(), vec![2, 7, 7, 7, 9]);
    }

    #[test]
    fn scan_of_single_element_is_identity() {
        let mut b = Builder::new();
        let x = b.input();
        let out = scan(&mut b, &[vec![x]], &mut |b, a, v| vec![b.add(a[0], v[0])]);
        let c = b.finish(vec![out[0][0]]);
        assert_eq!(c.evaluate(&[42]).unwrap(), vec![42]);
    }

    #[test]
    fn segmented_sum_restarts_at_key_change() {
        let mut b = Builder::new();
        let keys: Vec<Vec<WireId>> = (0..6).map(|_| vec![b.input()]).collect();
        let vals: Vec<Vec<WireId>> = (0..6).map(|_| vec![b.input()]).collect();
        let out = segmented_scan(&mut b, &keys, &vals, &mut |b, a, x| vec![b.add(a[0], x[0])]);
        let c = b.finish(out.into_iter().map(|v| v[0]).collect());
        // keys: 1 1 1 2 2 3 ; vals: 1 2 3 10 20 5
        let mut inputs = vec![1, 1, 1, 2, 2, 3];
        inputs.extend([1, 2, 3, 10, 20, 5]);
        assert_eq!(c.evaluate(&inputs).unwrap(), vec![1, 3, 6, 10, 30, 5]);
    }

    #[test]
    fn segmented_scan_with_composite_keys() {
        let mut b = Builder::new();
        let keys: Vec<Vec<WireId>> = (0..4).map(|_| vec![b.input(), b.input()]).collect();
        let vals: Vec<Vec<WireId>> = (0..4).map(|_| vec![b.input()]).collect();
        let out = segmented_scan(&mut b, &keys, &vals, &mut |b, a, x| vec![b.add(a[0], x[0])]);
        let c = b.finish(out.into_iter().map(|v| v[0]).collect());
        // keys: (1,1) (1,1) (1,2) (2,2); vals 1 1 1 1
        let inputs = vec![1, 1, 1, 1, 1, 2, 2, 2, /* vals */ 1, 1, 1, 1];
        assert_eq!(c.evaluate(&inputs).unwrap(), vec![1, 2, 1, 1]);
    }

    #[test]
    fn repetition_operator_copies_segment_head() {
        // ⊕ = "keep first" (the primary-key join's copy operator)
        let mut b = Builder::new();
        let keys: Vec<Vec<WireId>> = (0..5).map(|_| vec![b.input()]).collect();
        let vals: Vec<Vec<WireId>> = (0..5).map(|_| vec![b.input()]).collect();
        let out = segmented_scan(&mut b, &keys, &vals, &mut |_b, a, _x| vec![a[0]]);
        let c = b.finish(out.into_iter().map(|v| v[0]).collect());
        // keys 1 1 2 2 2; vals 7 0 9 0 0 → 7 7 9 9 9
        let mut inputs = vec![1, 1, 2, 2, 2];
        inputs.extend([7, 0, 9, 0, 0]);
        assert_eq!(c.evaluate(&inputs).unwrap(), vec![7, 7, 9, 9, 9]);
    }

    #[test]
    fn scan_size_is_n_log_n() {
        fn cost(n: usize) -> u64 {
            let mut b = Builder::new();
            let xs: Vec<Vec<WireId>> = (0..n).map(|_| vec![b.input()]).collect();
            let out = scan(&mut b, &xs, &mut |b, a, x| vec![b.add(a[0], x[0])]);
            b.finish(out.into_iter().map(|v| v[0]).collect()).size()
        }
        let (c64, c512) = (cost(64), cost(512));
        // N log N: 512·9/(64·6) = 12× — accept 6..20
        let ratio = c512 as f64 / c64 as f64;
        assert!((6.0..20.0).contains(&ratio), "ratio {ratio}");
    }
}
