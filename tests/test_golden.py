"""Golden digests of full schedules: a refactor must keep every bit.

Each case schedules a short run and hashes the bytes `write_cycles_csv`
writes for it; fallback and chain-restart counts are compared too, since
restarts do not show in the CSV.  The matrix covers every strategy, both
cancel methods, both SNS_RF_RP variants, all fixed positions, reference-
phase-only locking and configurations that force fallbacks.

A second table hashes the `psd.csv` the CLI writes: `simulate` at the
paper's baseline point and on `rp`, a `compare` overlay, and non-default
Welch windows, segment lengths and overlaps.  It pins the sampler and the
Welch estimate bit for bit.  A third table hashes the other artifacts of
the same runs (`waveform.csv`, `current.csv` and `report.txt`; `compare`
writes only the report), pinning the writers, the load current and the
notch report.

The digests change only with a deliberate change of scheduling output.
`python tests/test_golden.py` prints the table for such a change.
"""

import hashlib

import pytest

from notchpwm import (
    CancelMethod,
    ModulatorConfig,
    PulsePosition,
    SnsRfRpVariant,
    StrategyKind,
    StrategySpec,
    schedule,
)
from notchpwm.cli import ScenarioConfig, run_compare, run_simulate, write_cycles_csv

DURATION_S = 0.06
SEEDS = (1, 2)
M_INDICES = (0.3, 0.95)

FAR = CancelMethod.FALL_AFTER_RISE
RAF = CancelMethod.RISE_AFTER_FALL
PFF = SnsRfRpVariant.POSITION_FROM_FREQ
FFP = SnsRfRpVariant.FREQ_FROM_POSITION
BAND = dict(fs_min=1500.0, fs_max=3500.0)
NARROW = dict(fs_min=2400.0, fs_max=2600.0)


def _specs():
    specs = {
        "csvpwm": StrategySpec(kind=StrategyKind.CSVPWM, fs=2500.0),
        "rp": StrategySpec(kind=StrategyKind.RP, fs=2500.0),
        "rf": StrategySpec(kind=StrategyKind.RF, **BAND),
    }
    for name, method in (("far", FAR), ("raf", RAF)):
        # the former name of cancel_method, so these cases pin its alias too
        sns_rp = dict(kind=StrategyKind.SNS_RP, fs=2500.0, sns_rp_variant=method)
        specs[f"sns_rp-{name}"] = StrategySpec(fx=7000.0, **sns_rp)
        specs[f"sns_rp-{name}-ref"] = StrategySpec(
            fx=7000.0, reference_phase_only=True, **sns_rp
        )
        specs[f"sns_rp-{name}-fx900"] = StrategySpec(fx=900.0, **sns_rp)
    for name, variant in (("pff", PFF), ("ffp", FFP)):
        sns_rf_rp = dict(kind=StrategyKind.SNS_RF_RP, fx=7000.0, sns_rf_rp_variant=variant)
        specs[f"sns_rf_rp-{name}"] = StrategySpec(**BAND, **sns_rf_rp)
        specs[f"sns_rf_rp-{name}-ref"] = StrategySpec(
            reference_phase_only=True, **BAND, **sns_rf_rp
        )
        specs[f"sns_rf_rp-{name}-narrow"] = StrategySpec(**NARROW, **sns_rf_rp)
    for position in PulsePosition:
        for name, method in (("far", FAR), ("raf", RAF)):
            fixed = dict(
                kind=StrategyKind.FIXED_POS,
                fx=7000.0,
                fixed_position=position,
                cancel_method=method,
            )
            specs[f"fixed_pos-{position.value}-{name}"] = StrategySpec(**BAND, **fixed)
            specs[f"fixed_pos-{position.value}-{name}-narrow"] = StrategySpec(
                **NARROW, **fixed
            )
    return specs


SPECS = _specs()
CASES = [
    (f"{label}-m{m}-s{seed}", label, m, seed)
    for label in SPECS
    for m in M_INDICES
    for seed in SEEDS
]


def run_case(tmp_dir, label, m, seed):
    """(cycles.csv SHA-256, fallbacks, chain_restarts) of one case."""
    mod = ModulatorConfig(m_index=m, f1=50.0, u_dc=24.0)
    result = schedule(SPECS[label], mod, DURATION_S, seed)
    path = tmp_dir / "cycles.csv"
    write_cycles_csv(path, result.records)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest, result.stats.fallbacks, result.stats.chain_restarts


GOLDEN = {
    "csvpwm-m0.3-s1": (
        "df1f1612eadc401c2ab4aa6f74b9db9c805d21dc8ee78fd8c75e5e2a9775b9ec",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "csvpwm-m0.3-s2": (
        "df1f1612eadc401c2ab4aa6f74b9db9c805d21dc8ee78fd8c75e5e2a9775b9ec",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "csvpwm-m0.95-s1": (
        "ce8e125b6a48e0c0762584761d5eefea15cc9f00172a28efc0a48e43871b19be",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "csvpwm-m0.95-s2": (
        "ce8e125b6a48e0c0762584761d5eefea15cc9f00172a28efc0a48e43871b19be",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "rp-m0.3-s1": (
        "b741d71126d9d0db150bfc56ce32c64eb917b9ce7fd3d376d9963bacd20df941",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "rp-m0.3-s2": (
        "135c9b8ebb18b14bfbe6efb29c65a11375e3a58dcc33d1d09d77145515d9d6b4",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "rp-m0.95-s1": (
        "7550ad962f5977af60c9de81f284c036f7da3667eb431c0ae2880aca54f69320",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "rp-m0.95-s2": (
        "cb20d5f791950f3e5f821d978305f00f77d5eacab775ff924026a95507c79e94",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "rf-m0.3-s1": (
        "34f3328e565b6c7f5baf3b43659e82fb6328799d24108906fe17762eece0b395",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "rf-m0.3-s2": (
        "3e1618d256bf925a4830913937e1a18eda0caa8dceb96250cc8c1935c99ac9ba",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "rf-m0.95-s1": (
        "d6388e4c0ea093400aa81b4537d22ef6aeb453d782f9d07193ec220b370bb112",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "rf-m0.95-s2": (
        "21896b3dd955a5b86a4278b4b382e11658726e66d66e2cdff126270198927775",
        [0, 0, 0],
        [0, 0, 0],
    ),
    "sns_rp-far-m0.3-s1": (
        "1aecfdc941064185d18d870fe739b91af1850880d72f90f69befb42a91d35f50",
        [0, 0, 0],
        [3, 3, 3],
    ),
    "sns_rp-far-m0.3-s2": (
        "12729162a8aa9572405f47edef92aee13a704178f92d37508e563853d322beec",
        [0, 0, 0],
        [3, 3, 3],
    ),
    "sns_rp-far-m0.95-s1": (
        "efc9271842ac1850dcc3b45ab2926ba009db001fe9d0a7974af3279aa270aa5b",
        [44, 46, 46],
        [3, 3, 3],
    ),
    "sns_rp-far-m0.95-s2": (
        "107650e0f1959412fef3062d46f31c6fdfa363a31bfa93c3cc973e9850a40647",
        [44, 46, 47],
        [3, 3, 3],
    ),
    "sns_rp-far-ref-m0.3-s1": (
        "6d2256fe6e9bf1259a8a4f6f0bcf53928916d33ba4d5bc91731d5127b90c131c",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "sns_rp-far-ref-m0.3-s2": (
        "32f2ff1d7692681efde261a5749b2edd3fcd0664ebc35cd00b202759553b6cff",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "sns_rp-far-ref-m0.95-s1": (
        "68f3da176ca9cc2c4f4dd57def0af82af4527f301034f0f6bf77e3ca3f46024a",
        [45, 0, 0],
        [3, 0, 0],
    ),
    "sns_rp-far-ref-m0.95-s2": (
        "53687bd79bac9cadb8f276d582b49c60eb07afb8eef3599bd12aeb956825d2d4",
        [44, 0, 0],
        [3, 0, 0],
    ),
    "sns_rp-far-fx900-m0.3-s1": (
        "c2a9c0847c91074f551bdfa4b4f63d93dac83c48eab0c4fe8ef964c5834b357d",
        [96, 96, 98],
        [3, 3, 3],
    ),
    "sns_rp-far-fx900-m0.3-s2": (
        "c81d0591a655bb5ed136dfecb393f5f32eece34b680263db80e0ab830d0fad5a",
        [96, 96, 98],
        [3, 3, 3],
    ),
    "sns_rp-far-fx900-m0.95-s1": (
        "1357c2fb60102f6c4b5c0892aada18dc9d1787c076ca32831d241bec73789315",
        [96, 96, 98],
        [3, 3, 3],
    ),
    "sns_rp-far-fx900-m0.95-s2": (
        "9f9b60affdb9ff83739e734fa2d3c775cf81802c0accfc60f0b4d5d6940bbabf",
        [96, 96, 98],
        [3, 3, 3],
    ),
    "sns_rp-raf-m0.3-s1": (
        "4662b450db3d8697605c2743811cd3f19482ad01e7a20c717d961abd0305b002",
        [0, 0, 0],
        [3, 3, 3],
    ),
    "sns_rp-raf-m0.3-s2": (
        "24bdf5b25db6501198ba7a8919adaeffd5d32098c2b4a5f19bb40f944e754323",
        [0, 0, 0],
        [3, 3, 3],
    ),
    "sns_rp-raf-m0.95-s1": (
        "6175946cf6f708d0162a49b53969b6d87e57779f62da62872eb775e7522dff9d",
        [57, 58, 55],
        [3, 3, 3],
    ),
    "sns_rp-raf-m0.95-s2": (
        "938a72798b444e60f3afbf6a8e3553293b98e3cab646585104863863f8b06a2d",
        [55, 58, 54],
        [3, 3, 3],
    ),
    "sns_rp-raf-ref-m0.3-s1": (
        "9d57dfd7d801f3bed9416f7cc8ccf8132ec42abe4f6bc59cfd0d97e68b58a139",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "sns_rp-raf-ref-m0.3-s2": (
        "8e621d83255b5ce36a564e346c0a330503695ae0991f307d7bddd31e788b7a4a",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "sns_rp-raf-ref-m0.95-s1": (
        "863eb36424496ded16b01ed5bf06d9a0942236d114b1f4453a796af0b4952703",
        [58, 0, 0],
        [3, 0, 0],
    ),
    "sns_rp-raf-ref-m0.95-s2": (
        "58cea7d630bcdcf0b020c5eabfd3c2d3a08da81b7438d1176cb0af33ac3297b6",
        [56, 0, 0],
        [3, 0, 0],
    ),
    "sns_rp-raf-fx900-m0.3-s1": (
        "c2a9c0847c91074f551bdfa4b4f63d93dac83c48eab0c4fe8ef964c5834b357d",
        [96, 96, 98],
        [3, 3, 3],
    ),
    "sns_rp-raf-fx900-m0.3-s2": (
        "c81d0591a655bb5ed136dfecb393f5f32eece34b680263db80e0ab830d0fad5a",
        [96, 96, 98],
        [3, 3, 3],
    ),
    "sns_rp-raf-fx900-m0.95-s1": (
        "1357c2fb60102f6c4b5c0892aada18dc9d1787c076ca32831d241bec73789315",
        [96, 96, 98],
        [3, 3, 3],
    ),
    "sns_rp-raf-fx900-m0.95-s2": (
        "9f9b60affdb9ff83739e734fa2d3c775cf81802c0accfc60f0b4d5d6940bbabf",
        [96, 96, 98],
        [3, 3, 3],
    ),
    "sns_rf_rp-pff-m0.3-s1": (
        "769aae27069fcd068fe321d0e15399bfc805ffe559f9d9771ecd8fe375540154",
        [0, 0, 0],
        [3, 3, 3],
    ),
    "sns_rf_rp-pff-m0.3-s2": (
        "2c1ae618e5ef95b6c23c3c4ad9e887c98f3cdb5b9be67b9503a0158d0d9bae8b",
        [0, 0, 0],
        [3, 3, 3],
    ),
    "sns_rf_rp-pff-m0.95-s1": (
        "bb71f28c5c2424598ff4e9cfe02b54809b69af6e7155197f221594444a557ad9",
        [29, 37, 38],
        [3, 3, 3],
    ),
    "sns_rf_rp-pff-m0.95-s2": (
        "8e3c32fa7989dd7cd6ed9a87d7c39d59053fcb5a20ed80b1fe1b9bec7442e05b",
        [33, 40, 39],
        [3, 3, 3],
    ),
    "sns_rf_rp-pff-ref-m0.3-s1": (
        "f587678a4e80e8b4f81e2be7823e6cea1d831e3a5069a21017f452b9b66d710d",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "sns_rf_rp-pff-ref-m0.3-s2": (
        "aacab28fea558e29e5b2dd2fc683b4c46b04ae171958970dc4d274468be99c94",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "sns_rf_rp-pff-ref-m0.95-s1": (
        "094d9d289f9ea04cf608faa20b57e7275212e64b59a6e8860714a5f7ba8d9d1f",
        [31, 0, 0],
        [3, 0, 0],
    ),
    "sns_rf_rp-pff-ref-m0.95-s2": (
        "233877e7886935cb46363115f267b216f1ffbbf4ffe55095ed861529bfacb45a",
        [37, 0, 0],
        [3, 0, 0],
    ),
    "sns_rf_rp-pff-narrow-m0.3-s1": (
        "2e673c0d9d9d8b2e9bf53f968857e1527f319fe04bf32ba7047175ad13294661",
        [0, 0, 0],
        [3, 3, 3],
    ),
    "sns_rf_rp-pff-narrow-m0.3-s2": (
        "d45fa3d9f8c5d3948e1bc51da254741d55346c71455fa1bf02156e6a20791530",
        [0, 0, 0],
        [3, 3, 3],
    ),
    "sns_rf_rp-pff-narrow-m0.95-s1": (
        "07f2b4bbbe045bb0d8959f218c19e7abb8838faa30646b2b8c8e5324c29a5891",
        [47, 44, 44],
        [3, 3, 3],
    ),
    "sns_rf_rp-pff-narrow-m0.95-s2": (
        "31ab8caddbdbed5f73ba89ae47c0d270f6cd1c236a668857d6d32c1da864e181",
        [45, 44, 46],
        [3, 3, 3],
    ),
    "sns_rf_rp-ffp-m0.3-s1": (
        "f571744e22ab7a53f5ce75cf95d51c99e34b7b3895912e46e4c2909762f58c53",
        [4, 0, 0],
        [3, 3, 3],
    ),
    "sns_rf_rp-ffp-m0.3-s2": (
        "8b64744281c5fdf641696df5d840510652c925b4d09f465ca8a8e655a63739b6",
        [6, 0, 0],
        [3, 3, 3],
    ),
    "sns_rf_rp-ffp-m0.95-s1": (
        "276940633aac74b1852593890dac6e2ca593d9eefd3e80b800f40945b1f705db",
        [2, 28, 24],
        [3, 3, 3],
    ),
    "sns_rf_rp-ffp-m0.95-s2": (
        "beea8d0dfa9f431a836ed857ed93726875eed7849670747a0163d329277077d9",
        [1, 35, 38],
        [3, 3, 3],
    ),
    "sns_rf_rp-ffp-ref-m0.3-s1": (
        "afa5805f73737cb60461512a3c71a65a6dbfdc75ddbfee65ceb6f15f671baccd",
        [2, 0, 0],
        [3, 0, 0],
    ),
    "sns_rf_rp-ffp-ref-m0.3-s2": (
        "56c4888c4ca86f9885278fb66839dfccf746acedb2d1ecc328b44abfcef6dada",
        [5, 0, 0],
        [3, 0, 0],
    ),
    "sns_rf_rp-ffp-ref-m0.95-s1": (
        "4596824064f5183a313e4206fbd3fcfcdcb310450a2fc7118476449a331a8148",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "sns_rf_rp-ffp-ref-m0.95-s2": (
        "a6f0147383f9c179c1b3c2f17611d2c5b6a300da932fc38d18cbf6e8625add33",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "sns_rf_rp-ffp-narrow-m0.3-s1": (
        "6dcee0ee8488c4e2926b3ad391dadeb24ec6c210175729abc85b870b3376955c",
        [79, 0, 0],
        [3, 3, 3],
    ),
    "sns_rf_rp-ffp-narrow-m0.3-s2": (
        "d986b27b7cf2a8ecfce4b5337690842ae7ad976f06a4db5a98c3f66b557e6661",
        [80, 0, 0],
        [3, 3, 3],
    ),
    "sns_rf_rp-ffp-narrow-m0.95-s1": (
        "7bd0de41490e396bdddab0c595d937f55d3fab386a2866b3320133be487d6a09",
        [82, 48, 43],
        [3, 3, 3],
    ),
    "sns_rf_rp-ffp-narrow-m0.95-s2": (
        "c5191a523d5d58efd2789c3d8e3699bec469b9de995f6ce989529f3eb7e55951",
        [83, 43, 44],
        [3, 3, 3],
    ),
    "fixed_pos-front-far-m0.3-s1": (
        "5213d73f20ac1da0e10f6677b5ae55a8a05696a15ec3415bd5c245f4241dbaef",
        [33, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-far-m0.3-s2": (
        "c0408662b8eaefc184330411e1af401a0e4cfa447b39118a6a93db03a60e3239",
        [44, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-far-m0.95-s1": (
        "136129dd1470d93ca92644e12b9a0b69b4a215d1ea08ab662090266a257e6cc7",
        [7, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-far-m0.95-s2": (
        "8706db945d57ca8a20ec627d22f27cc5b4346dc03caad629136701e7231628f6",
        [4, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-far-narrow-m0.3-s1": (
        "1eb397e094dccf35acf027cc1c1697a87bc3e8561f1de53c0c6fbf5260598453",
        [95, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-far-narrow-m0.3-s2": (
        "6a17908baa741f28797a86438a740f709a61826c5938af1b133efab9d85838fa",
        [96, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-far-narrow-m0.95-s1": (
        "fcfe8ccb42d5d85128b95bd3954477be40740492b4de0f6061ae1f2a9bf49fd4",
        [84, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-far-narrow-m0.95-s2": (
        "e88bbdd7b24bbb221da43b5f055868a69c49b7061ef225a07f91517ed7738ef6",
        [90, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-raf-m0.3-s1": (
        "fc298e641928ee91296c17360f2bff3ae022cfa955e62a7570be9a50aebe5cee",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-raf-m0.3-s2": (
        "2b2993e5a44c10d7d9ff126cf212deff508d2a1c71c22d9f4ec2cf83fd495fe1",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-raf-m0.95-s1": (
        "cab156b580d3595bb1ab4447306e0fc802340de18946feca63cf69aee36b0034",
        [50, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-raf-m0.95-s2": (
        "73eaea47f06b82a1a2a98a312f0a6a6a16d0a09848eaf6ea3e76aae48a92b323",
        [51, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-raf-narrow-m0.3-s1": (
        "dd0fa4f9f7865a70010f20ca8a9d963aa5712c63fe6a2e142e7861d4c10cab75",
        [45, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-raf-narrow-m0.3-s2": (
        "36bfa0699841f20190bcfcd34f7efbd1c4d92ee8d089a57c6735b8aa33aeac33",
        [46, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-raf-narrow-m0.95-s1": (
        "292c61b57a471f035941b8a20b61541f12f53cdb9284252cf3d9ad70ca8020d0",
        [89, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-front-raf-narrow-m0.95-s2": (
        "e4a236d021120aa42ccfc8724a012e62bc9cd6b36aa6c4888ddd9c90455c71c0",
        [92, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-far-m0.3-s1": (
        "13faaf2a427543dc88c752d4004318273e1272d8a1115ad436a575ea3bbfda01",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-far-m0.3-s2": (
        "5c74529388a0c0d0739fef0d86b56e1f2426c1642dec0f9db52bbab9376b10dc",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-far-m0.95-s1": (
        "8a0de8a56708c58392d4b9d3af5e87dc1387c2b5bcda30a27d4f649ef2a01487",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-far-m0.95-s2": (
        "908629482ab05a5d044ce04fec7cf4c969b7be884158a4440c918d777655f98d",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-far-narrow-m0.3-s1": (
        "f4f9fd2e0cfb56e8b59e7850af9805b893a51ee06cd8b907910c2fcce7edbada",
        [89, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-far-narrow-m0.3-s2": (
        "7ca3e8fd5c668728d8d7f3d0ee8ed3e050612e86943e74839a112d90f1299ebd",
        [90, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-far-narrow-m0.95-s1": (
        "049fbed052aee51179d31c056a94ab8e2e899ce7cb6ba9d80ee421320b3f79c8",
        [86, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-far-narrow-m0.95-s2": (
        "2b62396ec0f994ba643d64317945f0b043239a7d00f56476e976cbbd1e6bfd54",
        [87, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-raf-m0.3-s1": (
        "05b3bcba825fab5d5e7ccd723a2eb8b11910ac082f240aa31d3ac744e6882f26",
        [1, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-raf-m0.3-s2": (
        "36c038f9be8722c63cde098ab976c6122546864c2f6a4b1806b3b4b272f7d271",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-raf-m0.95-s1": (
        "e1d176707ffd1be9035ad46489d639e09626b8946f7f39fca91217c7b34427a0",
        [62, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-raf-m0.95-s2": (
        "f8f9e0b08ada03f8f935aad17d682baddef2693011be756462e3606d912fd257",
        [68, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-raf-narrow-m0.3-s1": (
        "e159aeb5a191cde93fcdf090ec8cb060ad4f5f99916dedd558442faa48b33a57",
        [54, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-raf-narrow-m0.3-s2": (
        "6defabd82abb422699d391c61a80dbee022fdab0781bc9029f66add0a36d0f5a",
        [49, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-raf-narrow-m0.95-s1": (
        "98fd1013c4088649df5c8aea6769123a1b8f1c569d201db4181878618f2300cd",
        [94, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-center-raf-narrow-m0.95-s2": (
        "ab2aac8816d761f21a8e4f7f43eadbcddc362d783940fe770abb53d028820376",
        [94, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-far-m0.3-s1": (
        "df7becf003a8a26b3004f4640b64e94f3032a2dec74e6bb0745fc7cc15fe88f2",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-far-m0.3-s2": (
        "7efec1f38e34320d74126b68f13285e02bfffa2a997962f4a7892153415689f5",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-far-m0.95-s1": (
        "52443f6740608f6f0350155f89553859093f8429385ca5ed4abc345a98705b29",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-far-m0.95-s2": (
        "ac92f72631001242875fbdcd5bc28a156d61c1c55b5b293942f4afcd453108bb",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-far-narrow-m0.3-s1": (
        "fd0dbfa9dc3182464f0882e11a4ec82bdb7c8b25b8619d624dd7685d5c54919b",
        [81, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-far-narrow-m0.3-s2": (
        "5277e40b301683c8dc47c54ea6ded6b75b60a5a6af45361b892e7f9fa70f70b2",
        [84, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-far-narrow-m0.95-s1": (
        "0e6182b0a741768f59e9dffe68f5b382573e60052ee75072fcbdf3985679c568",
        [78, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-far-narrow-m0.95-s2": (
        "6996bccf198024ceb2bb417d7a1bf05cabc790224e0770343f9b11a1bbaf1260",
        [78, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-raf-m0.3-s1": (
        "ca72f2705ddf7fd57bd9579626ac8c5058c563ee72374b47399cb113b49ae0ab",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-raf-m0.3-s2": (
        "0702d659dbc377dea9f776735caf23641839e08486b195c971e0af9b945f2793",
        [0, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-raf-m0.95-s1": (
        "d1a20313153858105cf1d253041ab00f49481b3941ebdd2ec236b11106d8c398",
        [50, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-raf-m0.95-s2": (
        "930794f0b038bcc526054ea83d187160da38e475b941b6515c7c9cbd28f91b14",
        [51, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-raf-narrow-m0.3-s1": (
        "50639be6dfcaccbf0f238631f63db8c38a0799bc55599c820fd6135c042a7717",
        [45, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-raf-narrow-m0.3-s2": (
        "f78b7123a7344b9888541b2f292cbc9735f43bd32d8db85a8028e7b118d1ca91",
        [46, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-raf-narrow-m0.95-s1": (
        "8e151c1c2fb610c2f291187930e07ba3176e4bf646de53b6433ea66f18d1db09",
        [89, 0, 0],
        [3, 0, 0],
    ),
    "fixed_pos-back-raf-narrow-m0.95-s2": (
        "b0238e27115b86a41ce33263e58a318a6b517189fc2c9ece3e57fee27f130bdf",
        [92, 0, 0],
        [3, 0, 0],
    ),
}


@pytest.mark.parametrize("case,label,m,seed", CASES, ids=[c[0] for c in CASES])
def test_schedule_matches_golden_digest(tmp_path, case, label, m, seed):
    digest, fallbacks, restarts = run_case(tmp_path, label, m, seed)
    assert (digest, fallbacks, restarts) == GOLDEN[case]


# (command, config overrides) per psd.csv case; the rest is the paper's
# baseline point, shortened to 0.25 s at 1 MHz
SNS_RP = dict(strategy=StrategyKind.SNS_RP, fx_hz=7000.0)
RP = dict(strategy=StrategyKind.RP)
PSD_CASES = {
    "simulate-sns_rp": ("simulate", SNS_RP),
    "simulate-rp": ("simulate", RP),
    "compare-sns_rp-rp": ("compare", SNS_RP),
    "simulate-hamming-4096-0.25": (
        "simulate",
        dict(SNS_RP, psd_window="hamming", psd_segment_len=4096, psd_overlap=0.25),
    ),
    "simulate-boxcar-2048-0.75": (
        "simulate",
        dict(RP, psd_window="boxcar", psd_segment_len=2048, psd_overlap=0.75),
    ),
    # 0.05 s export windows whose u_ab and current cells take each of
    # repr's layouts: plain decimals at 7.5 V, cells the float formatter
    # hands to repr itself at 1e-7 V, and exponents at 3e20 V
    **{
        f"simulate-sns_rp-0.05s-{u_dc:g}V": (
            "simulate",
            dict(SNS_RP, u_dc_v=u_dc, export_window_s=0.05),
        )
        for u_dc in (7.5, 1e-7, 3e20)
    },
}


ARTIFACTS = ("psd.csv", "waveform.csv", "current.csv", "report.txt")


def run_cli_case(tmp_dir, label):
    """SHA-256 of each artifact one CLI command writes, by file name."""
    command, overrides = PSD_CASES[label]
    values = dict(
        m_index=0.7,
        f1_hz=50.0,
        u_dc_v=24.0,
        duration_s=0.25,
        seed=1,
        fs_hz=2500.0,
        psd_segment_len=16384,
        export_window_s=0.001,
        out_dir=str(tmp_dir),
    )
    cfg = ScenarioConfig(**{**values, **overrides})
    (run_simulate if command == "simulate" else run_compare)(cfg)
    return {
        name: hashlib.sha256((tmp_dir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (tmp_dir / name).exists()
    }


@pytest.fixture(scope="module")
def cli_digests(tmp_path_factory):
    """run_cli_case of a label, run once per module."""
    cache = {}

    def digests(label):
        if label not in cache:
            cache[label] = run_cli_case(tmp_path_factory.mktemp(label), label)
        return cache[label]

    return digests


PSD_GOLDEN = {
    "simulate-sns_rp": "8c2284dfa13fee781b0c6c85155197299932f8e705c3436b02867fc2a0a8a216",
    "simulate-rp": "3b48d642667c13bcb04bccadc339c19d14e937fed65cd90d96205a8be1f57c56",
    "compare-sns_rp-rp": "99a07c64797a8d72ccfbebdd8dfe648e3208d5c9cb4331f9a17d0ea494066e80",
    "simulate-hamming-4096-0.25": "a66b7a683382876192d1317838b1a4e1c0a80e15be49881462e6eebe12b846d5",
    "simulate-boxcar-2048-0.75": "525749b326bdf960beaa57b0f58c83d741e9ad9a8c79b97a09c19696e974ce51",
    "simulate-sns_rp-0.05s-7.5V": "cd8d84f5e6ee95a64765e62634465396015cb16a8e8f117306fca85b360991b0",
    "simulate-sns_rp-0.05s-1e-07V": "d84609382b57f83df571229eb0d54977b02c080cbefbfdcb488bf26474d02255",
    "simulate-sns_rp-0.05s-3e+20V": "084d41274974c8bd5e066ac550686174e5256d03e02b083c29dd0a57962e93c8",
}


@pytest.mark.parametrize("label", PSD_CASES)
def test_psd_csv_matches_golden_digest(cli_digests, label):
    assert cli_digests(label)["psd.csv"] == PSD_GOLDEN[label]


ARTIFACT_GOLDEN = {
    "simulate-sns_rp": {
        "waveform.csv": "5da9cb598e44daefa85a6a1a7fff2e39ba779c6942d6a7c8f4b8212150a233f5",
        "current.csv": "52ffe0eb607fc104d89e021738af2aa0ef0df55c307f8ffa256a91601c3cd200",
        "report.txt": "4438dbe3b892cd96a3648e85a6dce202ed708efd87faac0eb271672fd603c042",
    },
    "simulate-rp": {
        "waveform.csv": "f96718e1e900c3ad05215a6230cfd23f9908cbe1e5408682373701c79b28470f",
        "current.csv": "a11278502f4ab7ccc517f65cc4b375830e81e6da5523beb3c9eafe3e05d31fc3",
        "report.txt": "cdce93b9c027fa9f2eabb585ae3ae6e2e5de0d7db869aba7cd82af518afe0ffe",
    },
    "compare-sns_rp-rp": {
        "report.txt": "4438dbe3b892cd96a3648e85a6dce202ed708efd87faac0eb271672fd603c042",
    },
    "simulate-hamming-4096-0.25": {
        "waveform.csv": "5da9cb598e44daefa85a6a1a7fff2e39ba779c6942d6a7c8f4b8212150a233f5",
        "current.csv": "52ffe0eb607fc104d89e021738af2aa0ef0df55c307f8ffa256a91601c3cd200",
        "report.txt": "b26b3bbc3cc455fd77e5c1a783637d6b4fe97d1097599152d316c5a509651ee8",
    },
    "simulate-boxcar-2048-0.75": {
        "waveform.csv": "f96718e1e900c3ad05215a6230cfd23f9908cbe1e5408682373701c79b28470f",
        "current.csv": "a11278502f4ab7ccc517f65cc4b375830e81e6da5523beb3c9eafe3e05d31fc3",
        "report.txt": "bd20be989862aca48f8466b410bfbc2fde5eb29195aa2a55d9adff0faffdc3b4",
    },
    "simulate-sns_rp-0.05s-7.5V": {
        "waveform.csv": "e572caa8fba6e39d973adc5c734dbcd4a6dcac9e790d5d1be466ed1c98e3e552",
        "current.csv": "8e041ed616fcfc73506dc29048454f620850e829858909c127a82da1148826da",
        "report.txt": "396afaa053daa290cef23db19ff78f7f09c4ee6231863253f02a632d24179b2c",
    },
    "simulate-sns_rp-0.05s-1e-07V": {
        "waveform.csv": "526c9e21b0dbdd7fe3ba4ebfceff3a8a258312d7b178550e4438a7ef3dbf8489",
        "current.csv": "e56efcd3b2c0663b5ee566e050ff7fdb5c0aecf935af0dc5f492cd6aa03ff33c",
        "report.txt": "f981e50185196b64d95bcd292c5ecf5614ae7e0c5de928d807b7e0205974e81b",
    },
    "simulate-sns_rp-0.05s-3e+20V": {
        "waveform.csv": "bb9516b673be333f1fc870e4eac7772a2849ceeef86024c686ce9e1139ec7559",
        "current.csv": "2aada9021fbb1a6a43a2ff95524c54f6472a431bf58ee1cded03c2a544b172fa",
        "report.txt": "3be37a49ec0366c14cb78bba8f017e09db2a1eed83415cb0210f843f7b8992ad",
    },
}


@pytest.mark.parametrize("label", PSD_CASES)
def test_cli_artifacts_match_golden_digest(cli_digests, label):
    digests = dict(cli_digests(label))
    del digests["psd.csv"]
    assert digests == ARTIFACT_GOLDEN[label]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for case, label, m, seed in CASES:
            digest, fallbacks, restarts = run_case(pathlib.Path(tmp), label, m, seed)
            print(f'    "{case}": (\n        "{digest}",\n        {fallbacks},\n        {restarts},\n    ),')
        print("}")
        cli_runs = {}
        for label in PSD_CASES:
            out = pathlib.Path(tmp) / label
            out.mkdir()
            cli_runs[label] = run_cli_case(out, label)
        print("PSD_GOLDEN = {")
        for label, digests in cli_runs.items():
            print(f'    "{label}": "{digests.pop("psd.csv")}",')
        print("}")
        print("ARTIFACT_GOLDEN = {")
        for label, digests in cli_runs.items():
            print(f'    "{label}": {{')
            for name, digest in digests.items():
                print(f'        "{name}": "{digest}",')
            print("    },")
        print("}")
