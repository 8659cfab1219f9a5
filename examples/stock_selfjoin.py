#!/usr/bin/env python3
"""Stock-exchange self-join under bursty keys, with a scale-out event.

Reproduces the flavour of Figs. 14(b) and 15(b): a windowed self-join keyed by
stock id runs over a bursty trading stream; halfway through the run one extra
task instance is added and the time it takes each strategy to make use of it is
visible in the per-interval throughput series.

Run with:  python examples/stock_selfjoin.py
"""

from repro.experiments.harness import run_simulation
from repro.operators import WindowedSelfJoin
from repro.workloads import StockExchangeWorkload


def main() -> None:
    num_tasks = 8
    intervals = 18
    add_at = 9
    workload = StockExchangeWorkload(
        num_stocks=1036,
        tuples_per_interval=120_000,
        burst_probability=0.02,
        burst_magnitude=15.0,
        intervals=intervals,
        seed=3,
    ).take(intervals)

    print(f"windowed self-join on {1036} stock ids, {num_tasks} tasks "
          f"(+1 at interval {add_at})")
    series = {}
    for strategy in ("storm", "readj", "mixed"):
        collector = run_simulation(
            strategy,
            workload,
            WindowedSelfJoin(window=2),
            num_tasks=num_tasks,
            theta_max=0.1,
            max_table_size=800,
            window=2,
            seed=3,
            scale_out_at={add_at: num_tasks + 1},
        )
        series[strategy] = collector.series("throughput")
        summary = collector.summary()
        print(f"  {strategy:>6}: mean throughput {summary['throughput_mean']:.0f}/s, "
              f"mean latency {summary['latency_ms_mean']:.1f} ms, "
              f"{int(summary['rebalances'])} rebalances")

    print()
    print(f"{'interval':>8} | " + " | ".join(f"{name:>9}" for name in series))
    print("-" * (12 + 12 * len(series)))
    for interval in range(intervals):
        row = " | ".join(f"{series[name][interval]:>9.0f}" for name in series)
        marker = "  <- task added" if interval == add_at else ""
        print(f"{interval:>8} | {row}{marker}")

    print()
    print("Expected: every strategy re-hashes onto the new instance when it is added")
    print("and pays a short pause to migrate the state that moved; mixed and readj")
    print("then keep rebalancing as before.")


if __name__ == "__main__":
    main()
