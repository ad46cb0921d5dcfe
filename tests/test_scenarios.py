import pytest
from hypothesis import given, settings, strategies as st

from tiadc_cal import ConfigError, MismatchProfile, experiments
from tiadc_cal.experiments import run_sweep
from tiadc_cal.scenarios import (BUILTIN_SCENARIOS, DEFAULTS, SWEEP_AXES,
                                 Scenario, apply_sweep_value, build_scenario,
                                 coherent_freq, load_scenario,
                                 parse_scenario_text, parse_value_list,
                                 scenario_settings, scenario_to_text,
                                 with_seed)


class TestCoherentFreq:
    @pytest.mark.parametrize("nominal,bin_index", [
        (0.019, 77), (0.133, 545), (0.266, 1089),
        (0.399, 1635), (0.46, 1885), (0.19, 779),
    ])
    def test_pinned_bins(self, nominal, bin_index):
        assert coherent_freq(nominal, 4096) == bin_index / 4096

    def test_result_is_odd_bin(self):
        for nominal in (0.01, 0.1, 0.25, 0.33, 0.49):
            j = coherent_freq(nominal, 4096) * 4096
            assert j == int(j) and int(j) % 2 == 1

    def test_bounds(self):
        with pytest.raises(ConfigError):
            coherent_freq(0.0, 4096)
        with pytest.raises(ConfigError):
            coherent_freq(0.5, 4096)


class TestParseValueList:
    def test_inclusive_range(self):
        assert parse_value_list("12:30", integer=True) == tuple(range(12, 31))

    def test_comma_floats(self):
        assert parse_value_list("0.1, 0.2,0.3") == (0.1, 0.2, 0.3)

    def test_comma_ints(self):
        assert parse_value_list("2,6,10", integer=True) == (2, 6, 10)

    def test_descending_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_value_list("30:12")

    def test_bad_token_rejected(self):
        with pytest.raises(ConfigError):
            parse_value_list("1,two,3")


class TestParseScenarioText:
    def test_round_trip_identity(self):
        scenario = load_scenario("fig7")
        again = parse_scenario_text(scenario_to_text(scenario),
                                    fallback_name=scenario.name)
        assert again == scenario

    def test_round_trip_with_sweep(self):
        scenario = load_scenario("fig10")
        again = parse_scenario_text(scenario_to_text(scenario),
                                    fallback_name=scenario.name)
        assert again == scenario

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_round_trip_every_builtin(self, name):
        scenario = load_scenario(name)
        assert parse_scenario_text(scenario_to_text(scenario)) == scenario

    def test_older_sidecar_with_retired_keys_loads(self):
        # written by a version whose scenarios carried a polyphase plan
        sidecar = (
            "name = fig6\nchannels = 2\nbits = 12\nfs = 1.0\n"
            "full_scale = 1.0\namplitude = 0.9\nfreq = 0.018798828125\n"
            "coherent = false\nphase = 0.7964625710050646\ndc = 0.0\n"
            "offsets = 0.0,0.0\ngains = 0.0,0.01\nskews = 0.0,0.01\n"
            "taps = 30\ncoeff_bits = 30\nvariant = sub\nparallel = 4\n"
            "block_len = 4096\nmode = truth\nseed = 2206\n"
            "n_samples = 16384\nn_fft = 4096\n")
        fig6_sub = build_scenario(dict(scenario_settings(load_scenario("fig6")),
                                       variant="sub"))
        assert parse_scenario_text(sidecar) == fig6_sub
        assert "parallel" not in scenario_to_text(load_scenario("fig6"))

    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(sorted(DEFAULTS) + ["parallel", "block_len"]),
                  st.one_of(
                      st.integers(-5, 5000).map(str),
                      st.floats().map(repr),
                      st.sampled_from(["auto", "true", "false", "truth", "est",
                                       "sub", "div", "freq", "n_taps", "gain",
                                       "0,nan", "0,0.01", "1:3", "3:1", ""]),
                      st.text(max_size=6)))
        .map(lambda kv: f"{kv[0]} = {kv[1]}"),
        st.text(max_size=12)), max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_random_text_gives_scenario_or_config_error(self, lines):
        try:
            result = parse_scenario_text("\n".join(lines))
        except ConfigError:
            return
        assert isinstance(result, Scenario)
        assert_round_trips(result)

    def test_comments_and_blanks_ignored(self):
        scenario = parse_scenario_text(
            "# a comment\n\nchannels = 2\nbits = 14  # trailing note\n")
        assert scenario.config.bits == 14

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_scenario_text("channels = 2\nbits = 12\nwibble = 9\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_scenario_text("just some words\n")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_scenario_text("mode = offline\n")

    def test_sweep_values_without_axis_rejected(self):
        with pytest.raises(ConfigError, match="sweep_axis"):
            parse_scenario_text("sweep_values = 1,2,3\n")

    def test_clipping_tone_rejected(self):
        with pytest.raises(ConfigError, match="full_scale"):
            parse_scenario_text("amplitude = 0.9\ndc = 0.2\n")

    def test_full_scale_with_a_subnormal_lsb_rejected(self):
        with pytest.raises(ConfigError, match="smallest normal float"):
            parse_scenario_text("full_scale = 1e-320\namplitude = 5e-321\n")

    def test_gain_that_clips_rejected(self):
        # (1 + 0.2) * 0.9 = 1.08 of full scale on channel 1
        with pytest.raises(ConfigError, match="would clip"):
            parse_scenario_text("gains = 0,0.2\n")
        with pytest.raises(ConfigError, match="would clip"):
            parse_scenario_text("gains = 0,-0.2\n")

    def test_clip_rule_is_per_channel(self):
        # (1 + 0.25) * (0.5 + 0.25) + 0.0625 = 1.0 exactly: no clipping
        scenario = parse_scenario_text(
            "amplitude = 0.5\ndc = -0.25\ngains = 0,0.25\noffsets = 0,0.0625\n")
        assert scenario.profile.gains == (0.0, 0.25)
        with pytest.raises(ConfigError, match="would clip"):
            parse_scenario_text("amplitude = 0.5\ndc = -0.25\n"
                                "gains = 0,0.25\noffsets = 0,0.0626\n")
        # the largest gain and the largest offset sit on different channels
        parse_scenario_text("amplitude = 0.5\ngains = 0,0.25\noffsets = 0.5,0\n")

    def test_sample_count_must_cover_fft(self):
        with pytest.raises(ConfigError, match="n_fft"):
            parse_scenario_text("n_samples = 2048\nn_fft = 4096\n")

    def test_sample_count_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            parse_scenario_text("channels = 5\nn_samples = 16384\nn_fft = 4096\n")

    def test_wrong_mismatch_arity(self):
        with pytest.raises(ConfigError, match="gains"):
            parse_scenario_text("channels = 2\ngains = 0,0.01,0.02\n")

    def test_explicit_phase_kept(self):
        scenario = parse_scenario_text("phase = 1.25\n")
        assert scenario.tone.phase == 1.25

    def test_coherent_snaps_freq(self):
        scenario = parse_scenario_text("freq = 0.019\ncoherent = true\n")
        assert scenario.tone.freq_rel == 77 / 4096
        raw = parse_scenario_text("freq = 0.019\ncoherent = false\n")
        assert raw.tone.freq_rel == 0.019


class TestBuiltins:
    def test_all_build(self):
        for name, make in BUILTIN_SCENARIOS.items():
            scenario = make()
            assert scenario.name == name
            assert scenario.n_samples % scenario.config.n_channels == 0

    def test_two_channel_baseline(self):
        s = load_scenario("fig6")
        assert s.config.n_channels == 2
        assert s.tone.freq_rel == 77 / 4096
        assert s.profile.gains == (0.0, 0.01)
        assert s.profile.skews == (0.0, 0.01)

    def test_five_channel_scenario(self):
        s = load_scenario("fig7")
        assert s.config.n_channels == 5
        assert s.profile.gains == (0.0, 0.01, -0.01, 0.02, -0.02)

    def test_sweep_scenarios_have_axes(self):
        for name, axis in [("fig8", "freq"), ("fig9", "coeff_bits"),
                           ("fig10", "n_taps"), ("fig11", "gain"),
                           ("fig12", "skew")]:
            s = load_scenario(name)
            assert s.sweep_axis == axis
            assert len(s.sweep_values) >= 4

    def test_zero_and_ideal(self):
        assert load_scenario("zero").profile == MismatchProfile.zero(2)
        assert load_scenario("ideal").tone.amplitude == 1.0

    def test_unknown_source_lists_builtins(self):
        with pytest.raises(ConfigError, match="fig6"):
            load_scenario("not-a-scenario")

    def test_file_source(self, tmp_path):
        path = tmp_path / "mine.cfg"
        path.write_text(scenario_to_text(load_scenario("fig6")))
        assert load_scenario(str(path)).tone == load_scenario("fig6").tone

    @pytest.mark.parametrize("name", ["a#b", "a\nb", "a\rb", " a", "a "])
    def test_name_the_config_format_cannot_carry_rejected(self, name):
        with pytest.raises(ConfigError, match="add a 'name' key"):
            build_scenario(dict(DEFAULTS, name=name))

    def test_file_stem_with_hash_needs_a_name_key(self, tmp_path):
        text = scenario_to_text(load_scenario("fig6")).replace(
            "name = fig6\n", "")
        path = tmp_path / "run#2.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="'run#2'"):
            load_scenario(str(path))
        path.write_text("name = run2\n" + text)
        named = load_scenario(str(path))
        assert named.name == "run2"
        assert parse_scenario_text(scenario_to_text(named)) == named

    def test_inner_space_and_empty_names_round_trip(self):
        for name in ("my run", ""):
            scenario = build_scenario(dict(DEFAULTS, name=name))
            assert parse_scenario_text(scenario_to_text(scenario)) == scenario


class TestSweepAndSeed:
    def test_axes_registry(self):
        assert set(SWEEP_AXES) == {"coeff_bits", "n_taps", "gain", "skew", "freq"}

    def test_apply_coeff_bits(self):
        s = apply_sweep_value(load_scenario("fig9"), "coeff_bits", 14)
        assert s.filter_spec.coeff_bits == 14

    def test_apply_n_taps_rebuilds_plan(self):
        s = apply_sweep_value(load_scenario("fig10"), "n_taps", 62)
        assert s.filter_spec.n_taps == 62

    def test_apply_gain_fans_out(self):
        s = apply_sweep_value(load_scenario("fig7"), "gain", 0.02)
        assert s.profile.gains == (0.0, 0.02, 0.02, 0.02, 0.02)
        assert s.profile.skews == load_scenario("fig7").profile.skews

    def test_apply_skew_fans_out(self):
        s = apply_sweep_value(load_scenario("fig12"), "skew", 0.005)
        assert s.profile.skews == (0.0, 0.005)

    def test_apply_freq_snaps(self):
        s = apply_sweep_value(load_scenario("fig8"), "freq", 0.266)
        assert s.tone.freq_rel == 1089 / 4096

    def test_sweep_value_that_clips_rejected(self):
        fig6 = load_scenario("fig6")
        with pytest.raises(ConfigError, match="would clip"):
            apply_sweep_value(fig6, "gain", 0.2)
        with pytest.raises(ConfigError, match="would clip"):
            run_sweep(fig6, "gain", (0.2,))

    def test_sweep_checks_every_point_before_running_one(self, monkeypatch):
        ran = []
        monkeypatch.setattr(experiments, "calibrate_scenario",
                            lambda *args: ran.append(args))
        with pytest.raises(ConfigError, match="coeff_bits"):
            run_sweep(load_scenario("fig9"), "coeff_bits", (12, 30, 33))
        assert ran == []

    def test_with_seed_redraws_phase(self):
        base = load_scenario("fig6")
        a = with_seed(base, 1)
        b = with_seed(base, 2)
        assert a.seed == 1 and b.seed == 2
        assert a.tone.phase != b.tone.phase
        assert with_seed(base, 1).tone.phase == a.tone.phase

    def test_defaults_cover_scenario_fields(self):
        scenario = build_scenario(dict(DEFAULTS))
        assert scenario.mode == "truth"
        assert scenario.n_samples == 16384


def derived_scenarios(name):
    """A builtin, every point of its sweep and three reseeds of it."""
    scenario = load_scenario(name)
    yield scenario
    for value in scenario.sweep_values or ():
        yield apply_sweep_value(scenario, scenario.sweep_axis, value)
    for seed in (1, 2, 3):
        yield with_seed(scenario, seed)


def assert_round_trips(scenario):
    assert build_scenario(scenario_settings(scenario)) == scenario
    again = parse_scenario_text(scenario_to_text(scenario))
    # nan sweep values (never read by a run) compare equal only by text
    assert again == scenario or repr(again) == repr(scenario)


class TestScenarioSettings:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_round_trip_of_builtins_sweeps_and_reseeds(self, name):
        for scenario in derived_scenarios(name):
            assert_round_trips(scenario)

    def test_settings_follow_the_defaults_schema(self):
        values = scenario_settings(load_scenario("fig8"))
        assert list(values) == list(DEFAULTS)
        assert values["coherent"] is False
        assert values["freq"] == 77 / 4096

