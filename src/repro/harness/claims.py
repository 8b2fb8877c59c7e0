"""Every claim the paper makes about its experiments, declared once.

A :class:`Claim` holds the paper's words and figure, the experiments
of :data:`~repro.harness.experiments.EXPERIMENTS` it reads, a predicate
over a results document, and a declared verdict: reproduced, or
diverging for a stated reason that names the measured numbers. The
benchmark suite (``benchmarks/test_claims.py``) asserts that each
predicate's outcome matches its verdict, so a claim that flips either
way fails; ``tools/generate_experiments.py`` renders the same
predicates over the committed ``benchmarks/results.json`` into
EXPERIMENTS.md without simulating.

Where the reproduction holds a tolerance band around a paper claim it
does not match exactly, the band is one reproduced claim and the
paper's exact predicate a separate diverging one.

The results document (:func:`results_document`) is ``{experiment:
{column label: {workload: point}}}``; each point holds the run's
``cycles``, its data-cache ``hit_rate``, and ``extra_fu_usage``: for
each functional-unit class, the fraction of cycles each unit beyond
the default configuration was busy (the paper's Table 3 metric).
"""

import statistics

from repro.core.config import FU_DEFAULT
from repro.harness.experiments import (EXPERIMENTS, experiment_results,
                                       speedup)
from repro.workloads import GROUP_I, GROUP_II

#: Benchmark group -> workload names, in the paper's order.
GROUPS = {"Group I": tuple(w.name for w in GROUP_I),
          "Group II": tuple(w.name for w in GROUP_II)}
G1, G2 = GROUPS.values()


class Claim:
    """One claim. ``predicate(results)`` returns ``(holds, measured)``:
    the outcome, and text naming the quantity it judged. ``diverges``
    is ``None`` for a claim the reproduction matches, else the
    one-line reason it does not."""

    def __init__(self, name, figure, paper, experiments, predicate,
                 diverges=None):
        self.name = name
        self.figure = figure
        self.paper = paper
        self.experiments = experiments
        self.predicate = predicate
        self.diverges = diverges

    @property
    def verdict(self):
        return "reproduced" if self.diverges is None else "diverges"


def measure(result):
    """One run's point in the results document. Classes are sorted: a
    fresh run and a disk-cache replay list them in different orders."""
    usage = result.stats.extra_fu_usage(FU_DEFAULT)
    return {"cycles": result.cycles,
            "hit_rate": result.stats.cache_hit_rate,
            "extra_fu_usage": {cls.value: usage[cls] for cls in
                               sorted(usage, key=lambda cls: cls.value)}}


def results_document(runner):
    """The results document of every declared experiment, read
    through ``runner``."""
    return {name: {label: {workload: measure(result)
                           for workload, result in runs.items()}
                   for label, runs in experiment_results(runner, name).items()}
            for name in EXPERIMENTS}


# ------------------------------------------------------------ readers

def pct(value):
    return f"{value:+.1%}"


def cycles(results, experiment, label):
    """``{workload: cycles}`` of one column."""
    return {name: point["cycles"]
            for name, point in results[experiment][label].items()}


def mean(results, experiment, label, names, field="cycles"):
    """Mean of one point field over ``names`` in one column."""
    column = results[experiment][label]
    return sum(column[name][field] for name in names) / len(names)


def totals(results, experiment, key=str):
    """``{key(column label): total cycles over the experiment's
    workloads}``."""
    return {key(label): sum(cycles(results, experiment, label).values())
            for label in results[experiment]}


def thread_sweep(results, name):
    """``{thread label: cycles}`` of one workload, 1 to 6 threads."""
    return {label: column[name]["cycles"]
            for label, column in results["threads"].items()}


def peak(sweep):
    """``(peak speedup, its label)`` of a ``{label: cycles}`` thread
    sweep that starts at one thread: the paper's Section 5.2 measure."""
    single, *more = sweep
    best = min(more, key=sweep.get)
    return speedup(sweep[best], sweep[single]), best


def extra_units(results, names, label="4T/enhanced"):
    """``{class: [group mean busy fraction of each extra unit]}`` in one
    column of the ``fu`` experiment (Table 3)."""
    column = results["fu"][label]
    return {cls: [sum(column[name]["extra_fu_usage"][cls][index]
                      for name in names) / len(names)
                  for index in range(len(fractions))]
            for cls, fractions in column[names[0]]["extra_fu_usage"].items()}


def first_extra_units(results, names):
    """``{class: group mean busy fraction of its first extra unit}``
    with 4 threads, as the paper's Table 3 reports."""
    return {cls: usage[0]
            for cls, usage in extra_units(results, names).items()}


def _listing(values, fmt="{:,.0f}"):
    return ", ".join(fmt.format(value) for value in values)


# ------------------------------------------ Figures 3-6, Section 5.2

def _policies_comparable(names):
    def predicate(r):
        rr = cycles(r, "fetch", "TrueRR")
        ratios = {policy: statistics.median(
                      cycles(r, "fetch", policy)[n] / rr[n] for n in names)
                  for policy in ("MaskedRR", "CSwitch")}
        return (all(0.75 <= ratio <= 1.25 for ratio in ratios.values()),
                "median cycles vs TrueRR: " + ", ".join(
                    f"{p} {ratio:.3f}" for p, ratio in ratios.items()))
    return predicate


def _multithreading_wins(names):
    def predicate(r):
        rr, base = cycles(r, "fetch", "TrueRR"), cycles(r, "fetch", "BaseCase")
        wins = sum(rr[n] < base[n] for n in names)
        return (wins >= len(names) - 2,
                f"4 threads beat 1 on {wins} of {len(names)}")
    return predicate


def _ll5_loses(r):
    multi = cycles(r, "fetch", "TrueRR")["LL5"]
    single = cycles(r, "fetch", "BaseCase")["LL5"]
    return multi > single, f"LL5 {multi:,} cycles at 4T, {single:,} at 1T"


def _ll5_consistently_slower(r):
    sweep = list(thread_sweep(r, "LL5").values())
    return (all(c > sweep[0] for c in sweep[1:]) and sweep[5] > sweep[1],
            f"LL5 cycles {_listing(sweep)} at 1-6 threads")


def _peaks_early(names):
    def predicate(r):
        sweeps = {n: thread_sweep(r, n) for n in names if n != "LL5"}
        best = {n: peak(sweep)[1] for n, sweep in sweeps.items()}
        return (all(best[n] != "6T" and sweep["6T"] > sweep[best[n]]
                    for n, sweep in sweeps.items()),
                "best at " + ", ".join(f"{n} {b}" for n, b in best.items()))
    return predicate


def _most_gain(names):
    def predicate(r):
        gained = sum(peak(thread_sweep(r, n))[0] > 0 for n in names)
        return (gained >= len(names) - 1,
                f"{gained} of {len(names)} gain at some thread count")
    return predicate


def _thread_means(r, names):
    return {label: mean(r, "threads", label, names) for label in r["threads"]}


def _six_threads_worse(names):
    def predicate(r):
        means = _thread_means(r, names)
        best = peak(means)[1]
        return (means["6T"] > means[best],
                f"mean {means['6T']:,.0f} cycles at 6T, {means[best]:,.0f} "
                f"at {best}")
    return predicate


def _three_threads_best(r):
    means = _thread_means(r, G1)
    best = min(means, key=means.get)
    return (best == "3T",
            f"Group I mean lowest at {best} ({means[best]:,.0f} cycles); "
            f"{means['3T']:,.0f} at 3T")


def _peaks(r):
    return [peak(thread_sweep(r, name))[0] for name in G1 + G2]


def _peak_range(low, high):
    def predicate(r):
        peaks = _peaks(r)
        return (all(low <= p <= high for p in peaks),
                f"peaks {pct(min(peaks))} to {pct(max(peaks))}")
    return predicate


def _significant_gains(r):
    count = sum(p >= 0.15 for p in _peaks(r))
    return count >= 7, f"{count} of 11 peak at +15% or more"


def _headline_range(r):
    peaks = _peaks(r)
    inside = sum(0.20 <= p <= 0.55 for p in peaks)
    return (inside > len(peaks) / 2,
            f"{inside} of 11 peak within 20-55%, "
            f"{sum(p > 0.55 for p in peaks)} above")


def _ll5_never_gains(r):
    gain = peak(thread_sweep(r, "LL5"))[0]
    return gain < 0, f"LL5 peak {pct(gain)}"


def _group_averages(r):
    one, two = (sum(peak(thread_sweep(r, n))[0] for n in names) / len(names)
                for names in (G1, G2))
    return (one > 0.10 and two > 0.15,
            f"average peak Group I {pct(one)}, Group II {pct(two)}")


# ----------------------------------------- Figures 7-8 and Table 2

def _cache_means(r, names, organization, field="cycles"):
    return {n: mean(r, "cache", f"{n}T/{organization}", names, field)
            for n in EXPERIMENTS["cache"].threads}


def _assoc_faster(names, band=None):
    def predicate(r):
        direct = _cache_means(r, names, "direct")
        assoc = _cache_means(r, names, "assoc")
        holds = all(assoc[n] <= direct[n] * band if band
                    else assoc[n] < direct[n] for n in direct)
        return holds, "mean direct/assoc cycles " + ", ".join(
            f"{direct[n] / assoc[n]:.4f} at {n}T" for n in direct)
    return predicate


def _gap_grows(r):
    direct = _cache_means(r, G1, "direct")
    assoc = _cache_means(r, G1, "assoc")
    low, high = direct[1] / assoc[1], max(direct[4] / assoc[4],
                                          direct[6] / assoc[6])
    return (high >= low,
            f"mean direct/assoc {low:.4f} at 1T, up to {high:.4f} at 4-6T")


def _gap_increases(names):
    def predicate(r):
        direct = _cache_means(r, names, "direct")
        assoc = _cache_means(r, names, "assoc")
        gaps = [direct[n] - assoc[n] for n in direct]
        return (all(a < b for a, b in zip(gaps, gaps[1:])),
                f"direct - assoc mean cycles {_listing(gaps)} at "
                f"{_listing(direct, '{}')} threads")
    return predicate


def _hit_rate_higher(names, band=None):
    def predicate(r):
        direct = _cache_means(r, names, "direct", "hit_rate")
        assoc = _cache_means(r, names, "assoc", "hit_rate")
        return (all(assoc[n] >= direct[n] - band if band
                    else assoc[n] > direct[n] for n in direct),
                "assoc - direct hit rate " + ", ".join(
                    f"{assoc[n] - direct[n]:+.2%} at {n}T" for n in direct))
    return predicate


def _hit_rate_band(r):
    one, two = (_hit_rate_higher(names, 0.005)(r) for names in (G1, G2))
    return one[0] and two[0], f"Group I {one[1]}; Group II {two[1]}"


def _hit_rate_falls(names, organization):
    def predicate(r):
        rates = _cache_means(r, names, organization, "hit_rate")
        *fewer, most = rates
        return (rates[most] < max(rates[n] for n in fewer),
                f"{organization} hit rate " + ", ".join(
                    f"{rate:.2%} at {n}T" for n, rate in rates.items()))
    return predicate


# ------------------------------------------------------ Figures 9-10

def _su_means(r, names, nthreads):
    return {depth: mean(r, "su", f"{nthreads}T/su{depth}", names)
            for depth in (32, 64, 128, 256)}


def _su_diminishing(names):
    def predicate(r):
        one = _su_means(r, names, 1)
        first, last = one[32] - one[64], one[128] - one[256]
        return (first > 0 and first >= last,
                f"1-thread mean gains {first:,.0f} cycles from 32 to 64 "
                f"entries, {last:,.0f} from 128 to 256")
    return predicate


def _su_gap_shrinks(names, band=None):
    def predicate(r):
        one, four = _su_means(r, names, 1), _su_means(r, names, 4)
        shallow, deep = one[32] / four[32], one[256] / four[256]
        holds = deep <= shallow * band if band else deep < shallow
        return holds, (f"mean 1T/4T cycles {shallow:.3f} at SU32, "
                       f"{deep:.3f} at SU256")
    return predicate


def _su_four_threads_flat(names):
    def predicate(r):
        four = _su_means(r, names, 4)
        change = abs(four[256] - four[64]) / four[64]
        return (change < 0.10,
                f"4-thread mean moves {change:.1%} from SU64 to SU256")
    return predicate


# ------------------------------------------ Figures 11-12, Table 3

def _mean_gain(r, names, units):
    """Mean over ``names`` of the 4-thread speedup over 1 thread."""
    multi = cycles(r, "fu", f"4T/{units}")
    single = cycles(r, "fu", f"1T/{units}")
    return sum(speedup(multi[n], single[n]) for n in names) / len(names)


def _fu_gain_larger(names, band=None):
    def predicate(r):
        default = _mean_gain(r, names, "default")
        enhanced = _mean_gain(r, names, "enhanced")
        holds = enhanced >= default - band if band else enhanced > default
        return holds, (f"mean 4-thread gain {pct(default)} default, "
                       f"{pct(enhanced)} enhanced")
    return predicate


def _extra_units_never_hurt(names):
    def predicate(r):
        sums = {(n, units): sum(cycles(r, "fu", f"{n}T/{units}")[x]
                                for x in names)
                for n in (1, 4) for units in ("default", "enhanced")}
        return (all(sums[n, "enhanced"] <= sums[n, "default"] * 1.01
                    for n in (1, 4)),
                "enhanced/default total cycles " + ", ".join(
                    f"{sums[n, 'enhanced'] / sums[n, 'default']:.3f} at {n}T"
                    for n in (1, 4)))
    return predicate


def _load_unit_most_used(names):
    def predicate(r):
        usage = first_extra_units(r, names)
        top = max(usage, key=usage.get)
        return (top == "load",
                f"load #2 busy {usage['load']:.1%}; most used extra: {top}")
    return predicate


def _dividers_idle(names):
    def predicate(r):
        usage = first_extra_units(r, names)
        return (usage["int_div"] < 0.10 and usage["fp_div"] < 0.10,
                f"int_div #2 {usage['int_div']:.1%}, "
                f"fp_div #2 {usage['fp_div']:.1%}")
    return predicate


def _fp_multiplier_group1(r):
    one = first_extra_units(r, G1)["fp_mul"]
    two = first_extra_units(r, G2)["fp_mul"]
    return (one > two and max(one, two) > 0.005,
            f"fp_mul #2 busy {one:.2%} in Group I, {two:.2%} in Group II")


def _fp_multiplier_strong(r):
    usage = first_extra_units(r, G1)
    rank = sorted(usage, key=usage.get, reverse=True).index("fp_mul") + 1
    return (rank <= 2,
            f"Group I fp_mul #2 busy {usage['fp_mul']:.1%}, rank {rank} of "
            f"{len(usage)} extra units")


# ------------------------------------------------------ Figures 13-14

def _commit_wins(names):
    def predicate(r):
        multiple = cycles(r, "commit", "Multiple")
        lowest = cycles(r, "commit", "Lowest")
        gains = [lowest[n] / multiple[n] - 1 for n in names]
        return (all(multiple[n] < lowest[n] for n in names),
                f"flexible gain {pct(min(gains))} to {pct(max(gains))}")
    return predicate


# ---------------------------------------------- ablations, extensions

def _commit_depth(r):
    t = totals(r, "commit_depth", int)
    return (t[2] <= t[1] and t[4] <= t[2] and t[8] <= t[4] * 1.01
            and t[4] - t[8] <= t[1] - t[4],
            f"total cycles {_listing(t.values())} at windows 1/2/4/8")


def _predictor(r):
    t = totals(r, "predictor")
    change = abs(t["shared"] - t["private"]) / t["private"]
    return change < 0.10, f"shared differs from per-thread by {change:.1%}"


def _store_buffer(r):
    t = totals(r, "store_buffer", int)
    return (t[8] <= t[4] * 1.005 and t[16] <= t[8] * 1.005
            and t[8] - t[16] <= t[4] - t[8] + 50,
            f"total cycles {_listing(t.values())} at 4/8/16 entries")


def _cache_ports(r):
    t = totals(r, "cache_ports", int)
    return (t[2] <= t[1] and t[4] <= t[2] * 1.005,
            f"total cycles {_listing(t.values())} at 1/2/4 ports")


def _masked_criterion(r):
    t = totals(r, "masked_criterion")
    ratio = t["long_latency"] / t["commit_stall"]
    return 0.85 <= ratio <= 1.15, f"long-latency/commit-stall {ratio:.3f}"


def _icache(r):
    t = totals(r, "icache")
    return (t["perfect"] <= t["2048B"] <= t["512B"] <= t["perfect"] * 1.5,
            f"total cycles {_listing(t.values())} perfect/512B/2048B")


def _icount(r):
    rr, ic = cycles(r, "icount", "true_rr"), cycles(r, "icount", "icount")
    better = sum(ic[n] < rr[n] for n in rr)
    total_rr, total_ic = sum(rr.values()), sum(ic.values())
    return (total_ic <= total_rr * 1.10 and better >= 3,
            f"ICOUNT/TrueRR total {total_ic / total_rr:.3f}; ICOUNT "
            f"faster on {better}")


def _alignment(r):
    plain, aligned = cycles(r, "alignment", "plain"), cycles(r, "alignment",
                                                             "aligned")
    helped = sum(aligned[n] < plain[n] for n in plain)
    ratio = sum(aligned.values()) / sum(plain.values())
    return (0.90 <= ratio <= 1.10 and helped >= 2,
            f"aligned/plain total {ratio:.3f}; aligned faster on {helped}")


# --------------------------------------------------------- the claims

_FETCH = ('True RR and Masked RR are "about equivalent"; Conditional '
          'Switch "has similar performance" (median within 25%)')
_MT = ("multithreading (4 threads) beats the single-threaded base case "
       "for most benchmarks (all but two)")
_PEAK = ("best results at small thread counts (2-5 threads), "
         "deterioration by 6 threads")
_SIX = "on average, 6 threads are worse than the best thread count"
_ASSOC = "performance is better with the associative cache"
_HIT = "the associative cache has the higher hit rate"
_FALLS = ("as threads are added the {} hit rate first holds or improves, "
          "then falls")
_SU = ("significant gain from the smallest SU to the next size, much less "
       "after that")
_SU_GAP = ("the difference between multithreaded and single-threaded "
           "performance shrinks with deeper SUs")
_SU_FLAT = "with 4 threads, SUs deeper than 64 entries change little (<10%)"
_FU = ("with the enhanced configuration the relative multithreaded "
       "speedup is greater than with the default configuration")
_NEVER_HURT = "extra functional units never hurt (within 1%)"
_LOAD = 'the numbers "argue strongly in favor of a second load unit"'
_DIVIDERS = "extra dividers are barely used (below 10% of cycles)"
_COMMIT = ("committing from multiple (four) bottom blocks beats "
           "lowest-only commit")

CLAIMS = (
    Claim("fig3.policies_comparable", "Fig. 3", _FETCH, ("fetch",),
          _policies_comparable(G1)),
    Claim("fig4.policies_comparable", "Fig. 4", _FETCH, ("fetch",),
          _policies_comparable(G2)),
    Claim("fig3.multithreading_wins", "Fig. 3", _MT, ("fetch",),
          _multithreading_wins(G1)),
    Claim("fig4.multithreading_wins", "Fig. 4", _MT, ("fetch",),
          _multithreading_wins(G2)),
    Claim("fig3.ll5_loses", "Fig. 3",
          "the benchmark with a cross-iteration dependence (our LL5) is "
          "slower with 4 threads than single-threaded", ("fetch",),
          _ll5_loses),
    Claim("fig5.ll5_consistently_slower", "Fig. 5",
          "LL5 is consistently slower than single-threaded because of "
          "synchronization cost, and worse at 6 threads than at 2",
          ("threads",), _ll5_consistently_slower),
    Claim("fig5.peak_then_deteriorate", "Fig. 5", _PEAK, ("threads",),
          _peaks_early(G1)),
    Claim("fig6.peak_then_deteriorate", "Fig. 6", _PEAK, ("threads",),
          _peaks_early(G2)),
    Claim("fig5.most_gain", "Fig. 5",
          "multithreading improves every benchmark but the one with a "
          "cross-iteration dependence", ("threads",), _most_gain(G1)),
    Claim("fig6.most_gain", "Fig. 6",
          "multithreading improves most application benchmarks (all but "
          "one)", ("threads",), _most_gain(G2)),
    Claim("fig5.six_threads_worse", "Fig. 5", _SIX, ("threads",),
          _six_threads_worse(G1)),
    Claim("fig6.six_threads_worse", "Fig. 6", _SIX, ("threads",),
          _six_threads_worse(G2)),
    Claim("fig5.three_threads_best", "Fig. 5",
          "3 threads are best on average for the Livermore loops",
          ("threads",), _three_threads_best,
          diverges="the Livermore loops' mean is lowest at 2 threads "
                   "(6,533 cycles), not 3 (6,646)"),
    Claim("s5.2.peak_range_band", "§5.2",
          "peak improvements between -8.5% and 77% (band: -40% to +95%)",
          ("threads",), _peak_range(-0.40, 0.95)),
    Claim("s5.2.peak_range", "§5.2",
          "peak improvements between -8.5% and 77%", ("threads",),
          _peak_range(-0.085, 0.77),
          diverges="LL5 peaks at -13.9% and LL1 at +77.6%, both just "
                   "outside the paper's range"),
    Claim("s5.2.significant_gains", "§5.2",
          "a significant gain for most benchmarks (+15% or more for 7 of "
          "11)", ("threads",), _significant_gains),
    Claim("s5.2.headline_20_to_55", "§5.2",
          '"a speedup of 20 to 55% for most benchmarks"', ("threads",),
          _headline_range,
          diverges="only LL3, LL12 and Water (3 of 11) peak within "
                   "20-55%; five peak higher, up to +77.6%"),
    Claim("s5.2.ll5_never_gains", "§5.2",
          "LL5 gains at no thread count", ("threads",), _ll5_never_gains),
    Claim("s5.2.group_averages", "§5.2",
          "average peak improvement is positive in both groups (Group I "
          "above 10%, Group II above 15%)", ("threads",), _group_averages),
    Claim("fig7.assoc_within_2pct", "Fig. 7",
          _ASSOC + " (band: never 2% slower)", ("cache",),
          _assoc_faster(G1, 1.02)),
    Claim("fig7.assoc_faster", "Fig. 7", _ASSOC, ("cache",),
          _assoc_faster(G1),
          diverges="at 1 thread Group I runs the same 9,087 mean cycles "
                   "with either cache (direct/assoc 1.0000)"),
    Claim("fig8.assoc_faster", "Fig. 8", _ASSOC, ("cache",),
          _assoc_faster(G2)),
    Claim("fig7.gap_grows", "Fig. 7",
          "the direct-mapped penalty is larger at 4-6 threads than at 1",
          ("cache",), _gap_grows),
    Claim("fig7.gap_increases_steadily", "Fig. 7",
          'the difference "keeps increasing steadily as the number of '
          'threads is increased"', ("cache",), _gap_increases(G1)),
    Claim("fig8.gap_increases_steadily", "Fig. 8",
          'the difference "keeps increasing steadily as the number of '
          'threads is increased"', ("cache",), _gap_increases(G2),
          diverges="Group II's gap is 30, 46, 8 and 177 cycles at 1, 2, 4 "
                   "and 6 threads: it shrinks at 4"),
    Claim("table2.assoc_hit_rate_band", "Table 2",
          _HIT + " (band: never 0.5 points lower)", ("cache",),
          _hit_rate_band),
    Claim("table2.group1_assoc_hit_rate_higher", "Table 2", _HIT,
          ("cache",), _hit_rate_higher(G1),
          diverges="at 1 thread Group I hits 98.07% with either cache "
                   "(+0.00%)"),
    Claim("table2.group2_assoc_hit_rate_higher", "Table 2", _HIT,
          ("cache",), _hit_rate_higher(G2)),
    Claim("table2.group1_direct_hit_rate_falls", "Table 2",
          _FALLS.format("direct-mapped"), ("cache",),
          _hit_rate_falls(G1, "direct")),
    Claim("table2.group2_direct_hit_rate_falls", "Table 2",
          _FALLS.format("direct-mapped"), ("cache",),
          _hit_rate_falls(G2, "direct")),
    Claim("table2.group1_assoc_hit_rate_falls", "Table 2",
          _FALLS.format("associative"), ("cache",),
          _hit_rate_falls(G1, "assoc"),
          diverges="Group I's associative hit rate is highest at 6 "
                   "threads: 98.07% at 1T rising to 98.86%"),
    Claim("table2.group2_assoc_hit_rate_falls", "Table 2",
          _FALLS.format("associative"), ("cache",),
          _hit_rate_falls(G2, "assoc"),
          diverges="Group II's associative hit rate is highest at 6 "
                   "threads: 99.03% at 1T rising to 99.24%"),
    Claim("fig9.diminishing_returns", "Fig. 9", _SU, ("su",),
          _su_diminishing(G1)),
    Claim("fig10.diminishing_returns", "Fig. 10", _SU, ("su",),
          _su_diminishing(G2)),
    Claim("fig9.mt_gap_band", "Fig. 9",
          _SU_GAP + " (band: never grows 5%)", ("su",),
          _su_gap_shrinks(G1, 1.05)),
    Claim("fig9.mt_gap_shrinks", "Fig. 9", _SU_GAP, ("su",),
          _su_gap_shrinks(G1),
          diverges="Group I's 1T/4T cycle ratio is 1.308 at SU32 and "
                   "1.310 at SU256: flat, not shrinking"),
    Claim("fig10.mt_gap_shrinks", "Fig. 10", _SU_GAP, ("su",),
          _su_gap_shrinks(G2)),
    Claim("fig9.four_threads_flat", "Fig. 9", _SU_FLAT, ("su",),
          _su_four_threads_flat(G1)),
    Claim("fig10.four_threads_flat", "Fig. 10", _SU_FLAT, ("su",),
          _su_four_threads_flat(G2)),
    Claim("fig11.enhanced_gain_band", "Fig. 11",
          _FU + " (band: at most 8 points smaller)", ("fu",),
          _fu_gain_larger(G1, 0.08)),
    Claim("fig11.enhanced_gain_larger", "Fig. 11", _FU, ("fu",),
          _fu_gain_larger(G1),
          diverges="Group I's mean 4-thread gain falls from +22.7% "
                   "(default) to +17.5% (enhanced): single-threaded runs "
                   "already use the extra pipelined units"),
    Claim("fig12.enhanced_gain_larger", "Fig. 12", _FU, ("fu",),
          _fu_gain_larger(G2)),
    Claim("fig11.extra_units_never_hurt", "Fig. 11", _NEVER_HURT, ("fu",),
          _extra_units_never_hurt(G1)),
    Claim("fig12.extra_units_never_hurt", "Fig. 12", _NEVER_HURT, ("fu",),
          _extra_units_never_hurt(G2)),
    Claim("table3.group1_load_unit", "Table 3", _LOAD, ("fu",),
          _load_unit_most_used(G1)),
    Claim("table3.group2_load_unit", "Table 3", _LOAD, ("fu",),
          _load_unit_most_used(G2)),
    Claim("table3.group1_dividers_idle", "Table 3", _DIVIDERS, ("fu",),
          _dividers_idle(G1)),
    Claim("table3.group2_dividers_idle", "Table 3", _DIVIDERS, ("fu",),
          _dividers_idle(G2)),
    Claim("table3.fp_multiplier_group1", "Table 3",
          "a second floating-point multiplier is most useful to the "
          "compute-intensive Group I", ("fu",), _fp_multiplier_group1),
    Claim("table3.fp_multiplier_strong", "Table 3",
          'the numbers "argue strongly in favor of ... a floating point '
          'multiplier" (one of the two most used extra units)', ("fu",),
          _fp_multiplier_strong,
          diverges="Group I's second FP multiplier is busy 0.5% of cycles, "
                   "6th of its 8 extra units (the load unit: 8.5%)"),
    Claim("fig13.flexible_commit_wins", "Fig. 13", _COMMIT, ("commit",),
          _commit_wins(G1)),
    Claim("fig14.flexible_commit_wins", "Fig. 14", _COMMIT, ("commit",),
          _commit_wins(G2)),
    Claim("x.commit_depth", "ablation",
          "deeper flexible-commit windows never hurt, and the paper's 4 "
          "blocks capture most of the benefit of 8", ("commit_depth",),
          _commit_depth),
    Claim("x.shared_predictor", "ablation",
          "sharing one predictor/BTB among threads costs little (<10%)",
          ("predictor",), _predictor),
    Claim("x.store_buffer", "ablation",
          "more store buffering never hurts, and the paper's 8 entries "
          "capture almost all of the benefit of 16", ("store_buffer",),
          _store_buffer),
    Claim("x.cache_ports", "§6.1 #1",
          'improvement #1, "employ more cache ports": more ports never '
          "hurt", ("cache_ports",), _cache_ports),
    Claim("x.masked_criterion", "ablation",
          "Masked RR's commit-stall and long-latency masking criteria land "
          "within 15% of each other", ("masked_criterion",),
          _masked_criterion),
    Claim("x.icache", "ablation",
          "a real instruction cache costs something, a bigger one less, "
          "and at most 50% (the paper assumes a perfect one)", ("icache",),
          _icache),
    Claim("x.icount", "§6.1 #3",
          'improvement #3, "a judicious fetch policy" (ICOUNT, per '
          "Tullsen et al. 1996): within 10% of True RR overall and faster "
          "on at least 3 benchmarks",
          ("icount",), _icount),
    Claim("x.alignment", "§6.1 #2",
          "improvement #2, branch-target alignment: within 10% overall "
          "and faster on at least 2 benchmarks", ("alignment",), _alignment),
)
