"""Methodology check: static MST == empirical throughput of both
simulators on randomly generated systems.

Not a table in the paper, but the validation that makes every other
number in the reproduction trustworthy: the marked-graph analysis of
Section III, the data-carrying step simulator, and the structural RTL
simulator agree on the throughput of random practical LISs.
"""


from repro.experiments import render_table
from repro.gen import GeneratorConfig, generate_lis
from repro.lis import crossvalidate


CASES = [
    GeneratorConfig(v=12, s=2, c=2, rs=3, rp=True, policy="scc", seed=101),
    GeneratorConfig(v=16, s=3, c=2, rs=4, rp=True, policy="scc", seed=202),
    GeneratorConfig(v=16, s=3, c=2, rs=4, rp=True, policy="any", seed=303),
    GeneratorConfig(v=20, s=4, c=3, rs=6, rp=False, policy="any", seed=404),
    GeneratorConfig(v=24, s=4, c=3, rs=6, rp=True, policy="scc", seed=505),
]


def test_simulator_crossvalidation(benchmark, publish):
    def run_all():
        return [
            crossvalidate(generate_lis(cfg), clocks=300, warmup=100)
            for cfg in CASES
        ]

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for cfg, report in zip(CASES, reports):
        assert report["agreed"], (cfg, report)
        rows.append(
            [
                f"v={cfg.v},s={cfg.s},rs={cfg.rs},{cfg.policy}",
                report["analytic"],
                report["trace"],
                report["rtl"],
                "yes" if report["agreed"] else "NO",
            ]
        )
    publish(
        "simulator_crossval",
        render_table(
            ["system", "analytic MST", "trace sim", "rtl sim", "agree"],
            rows,
            title="Cross-validation - static analysis vs both simulators",
        ),
        data={
            "cases": [
                {
                    "v": cfg.v,
                    "s": cfg.s,
                    "rs": cfg.rs,
                    "policy": cfg.policy,
                    "seed": cfg.seed,
                    "analytic": report["analytic"],
                    "trace": report["trace"],
                    "rtl": report["rtl"],
                    "agreed": report["agreed"],
                }
                for cfg, report in zip(CASES, reports)
            ],
        },
    )
