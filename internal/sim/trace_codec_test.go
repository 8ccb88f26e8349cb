package sim

import (
	"context"
	"crypto/sha256"
	"errors"
	"reflect"
	"testing"

	"helixrc/internal/hcc"
)

// recordMixed records one real trace (the golden mixed workload under
// the paper's default platform) for codec tests.
func recordMixed(t *testing.T) (*Result, *Trace) {
	t.Helper()
	pm, fm := buildMixed(t, 600)
	comp := compileFor(t, pm, fm, hcc.V3, 600)
	res, tr, err := Record(context.Background(), pm, comp, fm, HelixRC(16), 600)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

// reseal recomputes the trailing self-checksum after an in-place header
// edit, simulating a writer from a different format version.
func reseal(data []byte) []byte {
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// TestTraceCodecRoundTrip pins the codec's core contract: a decoded
// trace replays bit-identically to the original under multiple timing
// configs, and encoding is deterministic.
func TestTraceCodecRoundTrip(t *testing.T) {
	_, tr := recordMixed(t)
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("EncodeTrace is not deterministic")
	}
	got, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}

	link8 := HelixRC(16)
	link8.Ring.LinkLatency = 8
	for _, arch := range []Config{HelixRC(16), Conventional(16), Abstract(16), link8} {
		want, err := Replay(context.Background(), tr, arch)
		if err != nil {
			t.Fatal(err)
		}
		have, err := Replay(context.Background(), got, arch)
		if err != nil {
			t.Fatal(err)
		}
		if *have != *want {
			t.Errorf("decoded trace replays differently:\nwant %+v\nhave %+v", want, have)
		}
	}
	// Re-encoding the decoded trace reproduces the bytes exactly.
	data3, err := EncodeTrace(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data3) != string(data) {
		t.Error("decode(encode) does not reproduce the encoding")
	}
}

// TestTraceCodecCorruption: every single-bit flip in a sample of
// positions, and every truncation, must fail decoding — never panic,
// never return a silently wrong trace.
func TestTraceCodecCorruption(t *testing.T) {
	_, tr := recordMixed(t)
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	stride := len(data)/97 + 1
	for pos := 0; pos < len(data); pos += stride {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x20
		if _, err := DecodeTrace(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", pos)
		}
	}
	for _, n := range []int{0, 1, len(data) / 3, len(data) - 1, len(data) - sha256.Size} {
		if _, err := DecodeTrace(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}

// TestTraceCodecVersionMismatch: a structurally valid entry from a
// future format version (checksum re-sealed) is rejected with a version
// error, not misparsed.
func TestTraceCodecVersionMismatch(t *testing.T) {
	_, tr := recordMixed(t)
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The format version is the u32 right after the 4-byte magic.
	data[len(traceMagic)] = TraceFormatVersion + 1
	data = reseal(data)
	if _, err := DecodeTrace(data); !errors.Is(err, errCodec) {
		t.Fatalf("future-version trace: err = %v, want errCodec", err)
	}
}

// TestResultCodecRoundTrip: every Result field survives the codec, and
// corruption or version skew is rejected.
func TestResultCodecRoundTrip(t *testing.T) {
	res, _ := recordMixed(t)
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *res {
		t.Errorf("round trip:\nwant %+v\ngot  %+v", res, got)
	}

	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x01
		if _, err := DecodeResult(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", pos)
		}
	}
	data[len(resultMagic)] = ResultFormatVersion + 1
	if _, err := DecodeResult(reseal(data)); !errors.Is(err, errCodec) {
		t.Fatalf("future-version result: err = %v, want errCodec", err)
	}
}

// TestConfigFingerprint pins the fingerprint's two properties: it
// separates timing-relevant configs and normalizes execution-strategy
// switches (which pick how a result is computed, not what it is).
func TestConfigFingerprint(t *testing.T) {
	base := HelixRC(16)
	if base.Fingerprint() != HelixRC(16).Fingerprint() {
		t.Error("fingerprint is not deterministic")
	}
	distinct := map[string]string{}
	for name, c := range map[string]Config{
		"helixrc16": HelixRC(16),
		"helixrc8":  HelixRC(8),
		"conv16":    Conventional(16),
		"abstract":  Abstract(16),
		"link8": func() Config {
			c := HelixRC(16)
			c.Ring.LinkLatency = 8
			return c
		}(),
	} {
		fp := c.Fingerprint()
		if prev, ok := distinct[fp]; ok {
			t.Errorf("%s and %s share a fingerprint", name, prev)
		}
		distinct[fp] = name
	}
	slow := base
	slow.SlowStep = true
	if slow.Fingerprint() != base.Fingerprint() {
		t.Error("SlowStep changed the fingerprint; the strategy switch must be normalized out")
	}
}

// TestConfigFingerprintCoversEveryField perturbs every leaf field of
// Config (nested configs included) by reflection: each perturbation must
// change the fingerprint, and no two may collide, except SlowStep, which
// must not change it. A field added without an encoder line fails here,
// which keeps the "a new field changes every key" safety of a
// reflective encoding without its cost.
func TestConfigFingerprintCoversEveryField(t *testing.T) {
	base := HelixRC(16)
	base.MaxSteps = 1000
	baseFP := base.Fingerprint()
	seen := map[string]string{baseFP: "the unperturbed config"}
	leaves := 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
			defer v.SetInt(v.Int() - 1)
		case reflect.Uint:
			v.SetUint(v.Uint() + 1)
			defer v.SetUint(v.Uint() - 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
			defer v.SetBool(!v.Bool())
		case reflect.String:
			old := v.String()
			v.SetString(old + "'")
			defer v.SetString(old)
		default:
			t.Fatalf("Config%s: no perturbation for kind %s; extend the encoder and this test", path, v.Kind())
		}
		leaves++
		fp := base.Fingerprint()
		if path == ".SlowStep" {
			if fp != baseFP {
				t.Error("SlowStep changed the fingerprint; the strategy switch must be left out")
			}
			return
		}
		if prev, ok := seen[fp]; ok {
			t.Errorf("perturbing Config%s gives the fingerprint of %s", path, prev)
		}
		seen[fp] = "Config" + path
	}
	walk("", reflect.ValueOf(&base).Elem())
	if leaves < 30 {
		t.Errorf("walked %d leaf fields; Config has more", leaves)
	}
}
