//! Property-based tests over the core invariants (proptest).

use k2hop::baselines::reference;
use k2hop::cluster::{
    dbscan, dbscan_labelling_with, dbscan_reference_with, dbscan_with, dist2_filter_chunked,
    DbscanParams, GridScratch, GridState,
};
use k2hop::core::candidates::candidate_clusters;
use k2hop::core::merge::merge_spanning;
use k2hop::core::{ConvoyMiner, K2Config, K2Hop, K2HopParallel};
use k2hop::model::{Convoy, ConvoySet, Dataset, ObjPos, ObjectSet, Oid, Point, Time, TimeInterval};
use k2hop::storage::{InMemoryStore, TimeRange};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A small random movement dataset: `n` objects over `ts` timestamps on a
/// coarse integer-ish grid (coarse coordinates make clusters and convoys
/// likely enough to exercise every code path).
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (2usize..8, 4u32..16).prop_flat_map(|(n, ts)| {
        proptest::collection::vec(0u8..12, n * ts as usize).prop_map(move |cells| {
            let mut pts = Vec::with_capacity(cells.len());
            let mut i = 0;
            for t in 0..ts {
                for oid in 0..n as u32 {
                    // Objects sit on a 1-D line of cells 1.0 apart.
                    pts.push(Point::new(oid, cells[i] as f64, 0.0, t));
                    i += 1;
                }
            }
            Dataset::from_points(&pts).expect("non-empty")
        })
    })
}

/// `(x, y)`, or a non-finite stand-in for a few `tag`s in 32: NaN, ±∞
/// in one axis, +∞ in both.
fn maybe_non_finite(x: f64, y: f64, tag: u8) -> (f64, f64) {
    match tag {
        0 => (f64::NAN, y),
        1 => (x, f64::INFINITY),
        2 => (f64::NEG_INFINITY, y),
        3 => (f64::INFINITY, f64::INFINITY),
        _ => (x, y),
    }
}

/// Every pair `i < j` within `sqrt(eps2)`, by the `O(n²)` definition.
fn brute_pairs(points: &[ObjPos], eps2: f64) -> Vec<(u32, u32)> {
    let mut want = Vec::new();
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            if points[i].dist2(&points[j]) <= eps2 {
                want.push((i as u32, j as u32));
            }
        }
    }
    want
}

/// The grid's eps-pairs, normalised to `i < j` and sorted.
fn grid_pairs(grid: &GridState, points: &[ObjPos], eps2: f64) -> Vec<(u32, u32)> {
    let mut got = Vec::new();
    grid.eps_pairs(points, eps2, &mut Vec::new(), |a, b| {
        got.push((a.min(b), a.max(b)));
    });
    got.sort_unstable();
    got
}

/// Textbook DBSCAN with `O(n²)` neighbourhood scans — no spatial index,
/// no scratch reuse. Cluster membership (including border-point claiming)
/// depends only on the seed-point visit order, which both implementations
/// share, so outputs must be identical.
fn brute_force_dbscan(points: &[ObjPos], params: DbscanParams) -> Vec<k2hop::model::ObjectSet> {
    if points.len() < params.min_pts {
        return Vec::new();
    }
    let eps2 = params.eps * params.eps;
    let nh = |idx: usize| -> Vec<usize> {
        (0..points.len())
            .filter(|&j| points[j].dist2(&points[idx]) <= eps2)
            .collect()
    };
    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;
    let mut label = vec![UNVISITED; points.len()];
    let mut cluster_count = 0usize;
    for start in 0..points.len() {
        if label[start] != UNVISITED {
            continue;
        }
        let seeds = nh(start);
        if seeds.len() < params.min_pts {
            label[start] = NOISE;
            continue;
        }
        let cid = cluster_count;
        cluster_count += 1;
        label[start] = cid;
        let mut frontier = Vec::new();
        for n in seeds {
            if label[n] == UNVISITED {
                frontier.push(n);
            }
            if label[n] == UNVISITED || label[n] == NOISE {
                label[n] = cid;
            }
        }
        while let Some(q) = frontier.pop() {
            let reach = nh(q);
            if reach.len() < params.min_pts {
                continue;
            }
            for n in reach {
                if label[n] == UNVISITED {
                    frontier.push(n);
                }
                if label[n] == UNVISITED || label[n] == NOISE {
                    label[n] = cid;
                }
            }
        }
    }
    let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); cluster_count];
    for (i, &l) in label.iter().enumerate() {
        if l < NOISE {
            clusters[l].push(points[i].oid);
        }
    }
    let mut out: Vec<k2hop::model::ObjectSet> = clusters
        .into_iter()
        .filter(|c| c.len() >= params.min_pts)
        .map(k2hop::model::ObjectSet::new)
        .collect();
    out.sort_by(|a, b| a.ids().cmp(b.ids()));
    out
}

/// A gappy, unordered oid for draw `i`: a multiplicative hash spreads
/// consecutive draws over the whole `u32` range.
fn gappy_oid(i: u32) -> Oid {
    i.wrapping_mul(2_654_435_761)
}

/// The DCM merge as the paper states it: every active convoy intersected
/// with every spanning convoy of the next window.
fn pairwise_merge(windows: &[Vec<Convoy>], m: usize) -> ConvoySet {
    let mut result = ConvoySet::new();
    let mut active = ConvoySet::new();
    for (i, spanning) in windows.iter().enumerate() {
        if i == 0 {
            for v in spanning {
                active.update(v.clone());
            }
            continue;
        }
        let mut next_active = ConvoySet::new();
        let boundary = spanning.first().map(|w| w.start());
        for v in active.drain() {
            if Some(v.end()) != boundary {
                result.update(v);
                continue;
            }
            let mut extended_fully = false;
            for w in spanning {
                let inter = v.objects.intersect(&w.objects);
                if inter.len() >= m {
                    if inter.len() == v.objects.len() {
                        extended_fully = true;
                    }
                    next_active.update(Convoy::from_parts(inter, v.start(), w.end()));
                }
            }
            if !extended_fully {
                result.update(v);
            }
        }
        for w in spanning {
            next_active.update(w.clone());
        }
        active = next_active;
    }
    for v in active.drain() {
        result.update(v);
    }
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// k/2-hop equals the brute-force reference on arbitrary data — the
    /// headline correctness claim of the reproduction — whichever way the
    /// hop-window probes are fetched: one by one from the source, from
    /// the resident dataset on several workers, or from prefetched slabs.
    #[test]
    fn k2hop_equals_reference(d in dataset_strategy(), m in 2usize..4, k in 2u32..7) {
        let store = InMemoryStore::new(d.clone());
        let eps = 1.0;
        let cfg = K2Config::new(m, k, eps).unwrap();
        let brute = reference::mine(&store, m, k, eps).unwrap().convoys;
        let k2 = ConvoyMiner::mine(&K2Hop::new(cfg), &store).unwrap().convoys;
        prop_assert_eq!(&k2, &brute);
        // A full-range clamp changes nothing but hides `as_dataset`, which
        // sends the parallel engine down the slab path.
        let opaque = TimeRange::new(InMemoryStore::new(d.clone()), 0, Time::MAX);
        for threads in [1usize, 3] {
            let parallel = K2HopParallel::new(cfg, threads);
            let resident = ConvoyMiner::mine(&parallel, &d).unwrap().convoys;
            prop_assert_eq!(&resident, &brute, "resident, {} threads", threads);
            let slabs = ConvoyMiner::mine(&parallel, &opaque).unwrap();
            prop_assert!(d.span().len() < k || slabs.stats.prefetch.shards > 0);
            prop_assert_eq!(&slabs.convoys, &brute, "slabs, {} threads", threads);
        }
    }

    /// DBSCAN output is a partition of a subset of the input: clusters are
    /// disjoint, sized >= min_pts, and every member is an input oid.
    #[test]
    fn dbscan_output_is_disjoint_partition(
        coords in proptest::collection::vec((0u32..40, 0i32..30, 0i32..30), 1..60),
        min_pts in 1usize..5,
    ) {
        // Dedup oids.
        let mut seen = BTreeSet::new();
        let points: Vec<ObjPos> = coords
            .into_iter()
            .filter(|(oid, _, _)| seen.insert(*oid))
            .map(|(oid, x, y)| ObjPos::new(oid, x as f64, y as f64))
            .collect();
        let clusters = dbscan(&points, DbscanParams::new(min_pts, 1.5));
        let mut all = BTreeSet::new();
        for c in &clusters {
            prop_assert!(c.len() >= min_pts);
            for oid in c.iter() {
                prop_assert!(all.insert(oid), "oid {} in two clusters", oid);
                prop_assert!(seen.contains(&oid));
            }
        }
    }

    /// Every DBSCAN cluster member has a chain of <= eps hops to every
    /// other member (density-connection implies graph connectivity at eps).
    #[test]
    fn dbscan_clusters_are_eps_connected(
        coords in proptest::collection::vec((0i32..25, 0i32..25), 2..40),
    ) {
        let points: Vec<ObjPos> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| ObjPos::new(i as u32, x as f64, y as f64))
            .collect();
        let eps = 1.5;
        let clusters = dbscan(&points, DbscanParams::new(2, eps));
        for c in &clusters {
            let members: Vec<&ObjPos> = points.iter().filter(|p| c.contains(p.oid)).collect();
            // BFS over the eps graph restricted to the cluster.
            let mut reached = vec![false; members.len()];
            let mut stack = vec![0usize];
            reached[0] = true;
            while let Some(u) = stack.pop() {
                for v in 0..members.len() {
                    if !reached[v] && members[u].dist2(members[v]) <= eps * eps {
                        reached[v] = true;
                        stack.push(v);
                    }
                }
            }
            prop_assert!(reached.iter().all(|&r| r), "cluster not eps-connected");
        }
    }

    /// ObjectSet set algebra agrees with BTreeSet.
    #[test]
    fn object_set_model(
        a in proptest::collection::vec(0u32..50, 0..30),
        b in proptest::collection::vec(0u32..50, 0..30),
    ) {
        let sa = ObjectSet::new(a.clone());
        let sb = ObjectSet::new(b.clone());
        let ma: BTreeSet<u32> = a.into_iter().collect();
        let mb: BTreeSet<u32> = b.into_iter().collect();
        let inter: Vec<u32> = ma.intersection(&mb).copied().collect();
        let union: Vec<u32> = ma.union(&mb).copied().collect();
        let got_inter = sa.intersect(&sb);
        let got_union = sa.union(&sb);
        prop_assert_eq!(got_inter.ids(), &inter[..]);
        prop_assert_eq!(got_union.ids(), &union[..]);
        prop_assert_eq!(sa.intersection_len(&sb), inter.len());
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
    }

    /// Interval intersection agrees with the set model.
    #[test]
    fn interval_model(s1 in 0u32..50, l1 in 1u32..20, s2 in 0u32..50, l2 in 1u32..20) {
        let a = TimeInterval::new(s1, s1 + l1 - 1);
        let b = TimeInterval::new(s2, s2 + l2 - 1);
        let sa: BTreeSet<u32> = a.iter().collect();
        let sb: BTreeSet<u32> = b.iter().collect();
        let expected: BTreeSet<u32> = sa.intersection(&sb).copied().collect();
        match a.intersect(&b) {
            Some(iv) => {
                let got: BTreeSet<u32> = iv.iter().collect();
                prop_assert_eq!(&got, &expected);
            }
            None => prop_assert!(expected.is_empty()),
        }
        prop_assert_eq!(a.overlaps(&b), !expected.is_empty());
    }

    /// Mining output invariants hold regardless of input: sizes, lengths,
    /// maximality, and full-connectedness re-verified from first
    /// principles.
    #[test]
    fn mining_output_invariants(d in dataset_strategy()) {
        let (m, k, eps) = (2usize, 3u32, 1.0);
        let store = InMemoryStore::new(d.clone());
        let res = ConvoyMiner::mine(&K2Hop::new(K2Config::new(m, k, eps).unwrap()), &store).unwrap();
        for c in &res.convoys {
            prop_assert!(c.objects.len() >= m);
            prop_assert!(c.len() >= k);
            // FC re-check: the restriction clusters into exactly {objects}
            // at every timestamp.
            for t in c.lifespan.iter() {
                let positions = d.restrict_at(t, &c.objects);
                let clusters = dbscan(&positions, DbscanParams::new(m, eps));
                prop_assert!(
                    clusters.len() == 1 && clusters[0] == c.objects,
                    "convoy {:?} not FC at t={}", c, t
                );
            }
        }
        // Pairwise maximality.
        for (i, a) in res.convoys.iter().enumerate() {
            for (j, b) in res.convoys.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_sub_convoy_of(b), "{a:?} inside {b:?}");
                }
            }
        }
    }

    /// The CSR-grid DBSCAN equals a brute-force `O(n²)` reference on
    /// random point clouds — negative coordinates, coincident points,
    /// exact eps-boundary distances (coordinates are multiples of 0.5, so
    /// with eps = 1.0 boundary-distance pairs are common and exactly
    /// representable) and a few NaN / ±∞ points, which are noise, included.
    #[test]
    fn csr_dbscan_equals_brute_force(
        coords in proptest::collection::vec((0u32..60, -30i32..30, -30i32..30, 0u8..32), 0..80),
        min_pts in 1usize..8,
    ) {
        let mut seen = BTreeSet::new();
        let points: Vec<ObjPos> = coords
            .into_iter()
            .filter(|(oid, _, _, _)| seen.insert(*oid))
            .map(|(oid, x, y, tag)| {
                let (x, y) = maybe_non_finite(x as f64 * 0.5, y as f64 * 0.5, tag);
                ObjPos::new(oid, x, y)
            })
            .collect();
        let params = DbscanParams::new(min_pts, 1.0);
        prop_assert_eq!(dbscan(&points, params), brute_force_dbscan(&points, params));
    }

    /// The grid's eps-pair sweep emits exactly the brute-force pair set,
    /// each pair once, for random clouds, random eps and both sizing
    /// regimes (a `spread` of 1 or 2 stretches the box 1e3× or 1e6×, past
    /// the extent path into the density path); NaN and ±∞ points pair
    /// with nothing.
    #[test]
    fn grid_eps_pairs_equal_brute_force(
        coords in proptest::collection::vec((-40i32..40, -40i32..40, 0u8..32), 0..60),
        eps10 in 5u32..30,
        spread in 0u32..3,
    ) {
        let eps = eps10 as f64 / 10.0;
        let scale = 0.5 * 1000f64.powi(spread as i32);
        let points: Vec<ObjPos> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y, tag))| {
                let (x, y) = maybe_non_finite(x as f64 * scale, y as f64 * scale, tag);
                ObjPos::new(i as u32, x, y)
            })
            .collect();
        let mut grid = GridState::new();
        grid.update(&points, eps);
        prop_assert!(grid.cell_side() >= eps);
        prop_assert_eq!(
            grid_pairs(&grid, &points, eps * eps),
            brute_pairs(&points, eps * eps),
            "eps {} scale {}", eps, scale
        );
    }

    /// `restrict_at_into` is exactly `restrict_at` into a reused buffer,
    /// for arbitrary datasets, timestamps and object sets.
    #[test]
    fn restrict_at_into_equals_restrict_at(
        d in dataset_strategy(),
        ids in proptest::collection::vec(0u32..12, 0..10),
        t_off in 0u32..20,
    ) {
        let set = ObjectSet::new(ids);
        let t = d.start() + t_off; // sometimes outside the span
        let mut buf = vec![ObjPos::new(u32::MAX, -1.0, -1.0)]; // stale content
        d.restrict_at_into(t, &set, &mut buf);
        prop_assert_eq!(buf, d.restrict_at(t, &set));
    }

    /// Binary codec round-trips arbitrary datasets.
    #[test]
    fn codec_round_trip(d in dataset_strategy()) {
        let mut buf = Vec::new();
        k2hop::model::codec::write_binary(&d, &mut buf).unwrap();
        let back = k2hop::model::codec::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(d, back);
    }

    /// A `GridState` driven through an arbitrary move-sequence (every
    /// snapshot re-scatters or rebuilds per the geometry test) emits
    /// exactly the brute-force eps-pairs of the current snapshot — the
    /// patched index never drifts.
    #[test]
    fn grid_state_patched_equals_fresh(
        start in proptest::collection::vec((0i32..40, 0i32..40), 8..48),
        steps in proptest::collection::vec(
            proptest::collection::vec((0usize..48, -50i32..50, -50i32..50), 0..12),
            1..6,
        ),
    ) {
        let eps = 1.5;
        let mut points: Vec<ObjPos> = start
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| ObjPos::new(i as u32, x as f64, y as f64))
            .collect();
        let mut state = GridState::new();
        state.update(&points, eps);
        for moves in &steps {
            for &(i, dx, dy) in moves {
                let i = i % points.len();
                points[i].x += dx as f64;
                points[i].y += dy as f64;
            }
            state.update(&points, eps);
            prop_assert_eq!(
                grid_pairs(&state, &points, eps * eps),
                brute_pairs(&points, eps * eps),
                "diverged after patching"
            );
        }
    }

    /// The chunked distance kernel appends exactly what the scalar
    /// filter appends — including the 1–3 trailing candidates that fall
    /// off the 4-lane chunks — for arbitrary candidate lists (length
    /// sweeps every remainder size) and boundary-grazing eps values.
    #[test]
    fn dist2_kernel_equals_scalar(
        coords in proptest::collection::vec((0i32..12, 0i32..12), 1..23),
        q_idx in 0usize..23,
        eps2_quarters in 0i32..40,
    ) {
        let points: Vec<ObjPos> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| ObjPos::new(i as u32, x as f64, y as f64))
            .collect();
        let candidates: Vec<u32> = (0..points.len() as u32).collect();
        let q = points[q_idx % points.len()];
        // Quarter-integer eps2 lands exactly on squared integer distances
        // often, exercising the boundary-inclusive compare in both paths.
        let eps2 = eps2_quarters as f64 / 4.0;
        let mut chunked = Vec::new();
        dist2_filter_chunked(&points, &candidates, &q, eps2, &mut chunked);
        let mut scalar = Vec::new();
        for &j in &candidates {
            if points[j as usize].dist2(&q) <= eps2 {
                scalar.push(j);
            }
        }
        prop_assert_eq!(chunked, scalar);
    }

    /// The union-find labelling over the grid's eps-pairs emits exactly
    /// the clusters of the pinned seed-and-expand reference — border
    /// points included, so at every `min_pts` — across patched-grid
    /// sequences (adjacent snapshots share one scratch, so later
    /// snapshots cluster through a patched index). Up to 60 points on a
    /// 14 × 14 lattice are dense enough that a border point often
    /// touches two clusters, where only the claiming rule decides; a few
    /// NaN / ±∞ points must be noise on both sides, even at `min_pts` 1.
    #[test]
    fn union_find_labelling_equals_seed_expand(
        snaps in proptest::collection::vec(
            proptest::collection::vec((0i32..14, 0i32..14, 0u8..32), 26..60),
            1..4,
        ),
        min_pts in 1usize..8,
    ) {
        let params = DbscanParams::new(min_pts, 1.5);
        let mut fast = GridScratch::new();
        let mut reference = GridScratch::new();
        for snap in &snaps {
            let points: Vec<ObjPos> = snap
                .iter()
                .enumerate()
                .map(|(i, &(x, y, tag))| {
                    let (x, y) = maybe_non_finite(x as f64, y as f64, tag);
                    ObjPos::new(i as u32, x, y)
                })
                .collect();
            let a = dbscan_with(&points, params, &mut fast);
            let b = dbscan_reference_with(&points, params, &mut reference);
            prop_assert_eq!(a, b);
        }
    }

    /// Candidate clusters read off two labellings equal §4.2's definition
    /// computed the quadratic way — intersect every pair, keep those of
    /// at least `m` objects, sort — on random disjoint cluster sets over
    /// gappy, unordered oids (each draw puts an object in one of five
    /// clusters or in none, on each side).
    #[test]
    fn labelled_candidates_equal_pairwise_definition(
        draws in proptest::collection::vec((0u32..400, 0u8..6, 0u8..6), 0..90),
        m in 1usize..5,
    ) {
        let mut seen = BTreeSet::new();
        let (mut left, mut right) = (BTreeMap::new(), BTreeMap::new());
        for &(i, l, r) in &draws {
            let oid = gappy_oid(i);
            if !seen.insert(oid) {
                continue;
            }
            for (side, label) in [(&mut left, l), (&mut right, r)] {
                if label < 5 {
                    side.entry(label).or_insert_with(Vec::new).push(oid);
                }
            }
        }
        let sets = |side: BTreeMap<u8, Vec<Oid>>| -> Vec<ObjectSet> {
            side.into_values().map(ObjectSet::new).collect()
        };
        let (left, right) = (sets(left), sets(right));
        let mut want: Vec<ObjectSet> = left
            .iter()
            .flat_map(|l| right.iter().map(move |r| l.intersect(r)))
            .filter(|c| c.len() >= m)
            .collect();
        want.sort_by(|a, b| a.ids().cmp(b.ids()));
        prop_assert_eq!(candidate_clusters(&left, &right, m), want);
    }

    /// `dbscan_labelling_with` is `dbscan_with` in another shape: its
    /// pairs are strictly ascending by oid, and grouping them by cluster
    /// gives exactly `dbscan_with`'s clusters — on random snapshots on
    /// both sides of the gridless cutoff, NaN / ±∞ points included, fed
    /// in oid order or shuffled, through one scratch per side across
    /// snapshots.
    #[test]
    fn labelling_groups_equal_dbscan_clusters(
        snaps in proptest::collection::vec(
            (
                proptest::collection::vec((0i32..14, 0i32..14, 0u8..32, 0u32..1000), 0..60),
                0u8..2,
            ),
            1..4,
        ),
        min_pts in 1usize..8,
    ) {
        let params = DbscanParams::new(min_pts, 1.5);
        let (mut labelled, mut gathered) = (GridScratch::new(), GridScratch::new());
        let mut out = Vec::new();
        for (snap, shuffle) in &snaps {
            let mut keyed: Vec<(u32, ObjPos)> = snap
                .iter()
                .enumerate()
                .map(|(i, &(x, y, tag, key))| {
                    let (x, y) = maybe_non_finite(x as f64, y as f64, tag);
                    (key, ObjPos::new(i as u32 * 37 + 5, x, y))
                })
                .collect();
            if *shuffle == 1 {
                keyed.sort_by_key(|&(key, _)| key);
            }
            let points: Vec<ObjPos> = keyed.into_iter().map(|(_, p)| p).collect();
            dbscan_labelling_with(&points, params, &mut labelled, &mut out);
            prop_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "not oid-sorted");
            let mut groups: BTreeMap<u32, Vec<Oid>> = BTreeMap::new();
            for &(oid, label) in &out {
                groups.entry(label).or_default().push(oid);
            }
            let mut got: Vec<Vec<Oid>> = groups.into_values().collect();
            got.sort();
            let want: Vec<Vec<Oid>> = dbscan_with(&points, params, &mut gathered)
                .iter()
                .map(|c| c.ids().to_vec())
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    /// The object-indexed DCM merge equals the all-pairs merge on random
    /// per-window spanning sets — overlapping sets, repeated sets, empty
    /// windows (stragglers) and spanning convoys below `m` included.
    #[test]
    fn indexed_merge_equals_pairwise_merge(
        windows in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0u32..10, 1..6), 0..7),
            1..7,
        ),
        m in 1usize..4,
    ) {
        let windows: Vec<Vec<Convoy>> = windows
            .iter()
            .enumerate()
            .map(|(w, sets)| {
                sets.iter()
                    .map(|ids| Convoy::from_parts(ObjectSet::new(ids.clone()), w as u32, w as u32 + 1))
                    .collect()
            })
            .collect();
        prop_assert_eq!(
            merge_spanning(&windows, m).into_sorted_vec(),
            pairwise_merge(&windows, m).into_sorted_vec()
        );
    }
}
