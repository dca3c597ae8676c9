package pcmserve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultinject"
)

// testShardsFI builds a sharded device with every shard's device
// wrapped in fault injection, returning the wrappers for arming.
func testShardsFI(t testing.TB, cfg ShardsConfig, plan func(i int) faultinject.Plan) (*Shards, []*faultinject.Device) {
	t.Helper()
	if cfg.Device.Blocks == 0 {
		cfg.Device = device.Config{
			Kind:           device.ThreeLC,
			Blocks:         8,
			Seed:           12345,
			DisableWearout: true,
		}
	}
	fis := make([]*faultinject.Device, 0, 8)
	cfg.WrapDevice = func(i int, dev ShardDevice) ShardDevice {
		p := faultinject.Plan{Seed: uint64(i) + 1}
		if plan != nil {
			p = plan(i)
		}
		fi := faultinject.New(dev, p)
		fis = append(fis, fi)
		return fi
	}
	g, err := NewShards(cfg)
	if err != nil {
		t.Fatalf("NewShards: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g, fis
}

// TestClientCloseIdempotent is the satellite check: a second Close (or
// Close racing other Closes) returns ErrClosed instead of re-closing
// the conn and re-awaiting the reader.
func TestClientCloseIdempotent(t *testing.T) {
	g := testShards(t, 2, 4, 8)
	addr := startServer(t, g, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	var wg sync.WaitGroup
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- c.Close()
		}()
	}
	wg.Wait()
	close(results)
	var firsts, rest int
	for err := range results {
		if errors.Is(err, ErrClosed) {
			rest++
		} else if err == nil {
			firsts++
		} else {
			t.Fatalf("Close returned unexpected error: %v", err)
		}
	}
	if firsts != 1 || rest != 7 {
		t.Fatalf("got %d nil and %d ErrClosed results, want 1 and 7", firsts, rest)
	}
	if err := c.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Close after Close = %v, want ErrClosed", err)
	}
	if _, err := c.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAt after Close = %v, want ErrClosed", err)
	}
}

// TestTypedErrorsOverWire is the satellite check: sentinel error codes
// survive the network, so errors.Is and Classify work on the client
// side.
func TestTypedErrorsOverWire(t *testing.T) {
	g, fis := testShardsFI(t, ShardsConfig{Shards: 2, QueueDepth: 8}, nil)
	addr := startServer(t, g, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Fill a block, then corrupt it: the read must come back as a
	// typed core.ErrUncorrectable.
	if _, err := c.WriteAt(make([]byte, core.BlockBytes), 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	fis[0].CorruptBlock(0)
	_, rerr := c.ReadAt(make([]byte, core.BlockBytes), 0)
	if !errors.Is(rerr, core.ErrUncorrectable) {
		t.Fatalf("remote corrupt read = %v, want core.ErrUncorrectable", rerr)
	}
	var re *RemoteError
	if !errors.As(rerr, &re) || re.Code != CodeUncorrectable {
		t.Fatalf("remote corrupt read = %#v, want RemoteError{CodeUncorrectable}", rerr)
	}
	if Classify(rerr) != ClassCorrupt {
		t.Fatalf("Classify(%v) = %v, want corrupt", rerr, Classify(rerr))
	}

	// A bounds violation classifies permanent.
	_, werr := c.WriteAt(make([]byte, 8), g.Size())
	if werr == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
	if !errors.As(werr, &re) || re.Code != CodeGeneric {
		t.Fatalf("bounds error = %#v, want RemoteError{CodeGeneric}", werr)
	}
	if Classify(werr) != ClassPermanent {
		t.Fatalf("Classify(bounds) = %v, want permanent", Classify(werr))
	}
}

func TestErrFrameRoundTrip(t *testing.T) {
	cases := []struct {
		err  error
		code uint8
		is   error
	}{
		{fmt.Errorf("wrapped: %w", core.ErrUncorrectable), CodeUncorrectable, core.ErrUncorrectable},
		{fmt.Errorf("shard 3: %w", ErrShardUnavailable), CodeShardUnavailable, ErrShardUnavailable},
		{fmt.Errorf("shutting down: %w", ErrClosed), CodeClosed, ErrClosed},
		{errors.New("some bounds violation"), CodeGeneric, nil},
	}
	for _, tc := range cases {
		fr := respBytes(errResponse(42, tc.err))
		resp, err := parseResponse(fr[8:])
		if err != nil {
			t.Fatalf("parseResponse: %v", err)
		}
		if resp.status != StatusErr || resp.id != 42 {
			t.Fatalf("frame decoded to status %d id %d", resp.status, resp.id)
		}
		got := decodeWireError(resp.payload)
		var re *RemoteError
		if !errors.As(got, &re) || re.Code != tc.code {
			t.Fatalf("decoded %#v, want code %d", got, tc.code)
		}
		if re.Msg != tc.err.Error() {
			t.Fatalf("message %q, want %q", re.Msg, tc.err.Error())
		}
		if tc.is != nil && !errors.Is(got, tc.is) {
			t.Fatalf("decoded error does not unwrap to %v", tc.is)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrorClass
	}{
		{"nil", nil, ClassPermanent},
		{"uncorrectable", core.ErrUncorrectable, ClassCorrupt},
		{"wrapped uncorrectable", fmt.Errorf("x: %w", core.ErrUncorrectable), ClassCorrupt},
		{"shard unavailable", ErrShardUnavailable, ClassTransient},
		{"closed", ErrClosed, ClassTransient},
		{"eof", io.EOF, ClassPermanent},
		{"remote generic", &RemoteError{Code: CodeGeneric, Msg: "bounds"}, ClassPermanent},
		{"remote uncorrectable", &RemoteError{Code: CodeUncorrectable}, ClassCorrupt},
		{"remote shard", &RemoteError{Code: CodeShardUnavailable}, ClassTransient},
		{"conn reset", errors.New("read tcp: connection reset by peer"), ClassTransient},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}
