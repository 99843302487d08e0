package xmlstore

import (
	"errors"
	"strings"
	"testing"
)

const tinyDoc = `<PLAY><ACT>
<SCENE><TITLE>One</TITLE>
<SPEECH><SPEAKER>A</SPEAKER><LINE>hello friend</LINE><LINE>goodbye</LINE></SPEECH>
</SCENE>
<TITLE>Act</TITLE>
<SPEECH><SPEAKER>B</SPEAKER><LINE>again</LINE></SPEECH>
</ACT></PLAY>`

func TestPublicAPIRoundTrip(t *testing.T) {
	st, err := NewStore(PlaysDTD, Config{Algorithm: XORator})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadXML([]string{tinyDoc}); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDefaultIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := st.RunStats(); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(`SELECT getElm(speech_line, 'LINE', 'LINE', 'friend') FROM speech
WHERE findKeyInElm(speech_line, 'LINE', 'friend') = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	text, err := FragmentText(res.Rows[0][0])
	if err != nil || !strings.Contains(text, "hello friend") {
		t.Errorf("fragment = %q, %v", text, err)
	}
}

func TestSchemaText(t *testing.T) {
	x, err := SchemaText(PlaysDTD, XORator)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(x, "speech_speaker:XADT") {
		t.Errorf("xorator schema:\n%s", x)
	}
	h, err := SchemaText(PlaysDTD, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h, "speaker_value:string") {
		t.Errorf("hybrid schema:\n%s", h)
	}
}

func TestMonetTableCount(t *testing.T) {
	n, err := MonetTableCount(ShakespeareDTD)
	if err != nil {
		t.Fatal(err)
	}
	if n < 60 {
		t.Errorf("Monet count = %d, want the §2 blow-up", n)
	}
}

func TestSchemaTextUnknownAlgorithm(t *testing.T) {
	if _, err := SchemaText(PlaysDTD, "bogus"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// Empty algorithm defaults to XORator.
	s, err := SchemaText(PlaysDTD, "")
	if err != nil || !strings.Contains(s, "XADT") {
		t.Errorf("default schema = %q, %v", s, err)
	}
}

func TestSnapshotThroughPublicAPI(t *testing.T) {
	st, err := NewStore(PlaysDTD, Config{Algorithm: XORator})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadXML([]string{tinyDoc}); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/snap.xordb"
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Query(`SELECT COUNT(*) FROM speech`)
	if err != nil || res.Rows[0][0].Int() != 2 {
		t.Errorf("restored speech count = %v, %v", res, err)
	}
}

func TestRecoveryThroughPublicAPI(t *testing.T) {
	cfg := Config{
		Algorithm: XORator,
		Engine:    EngineConfig{WALDir: t.TempDir(), WALSync: SyncBatch},
	}
	if _, err := OpenRecovered(cfg); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty WAL dir: err = %v, want ErrNoCheckpoint", err)
	}
	st, err := NewStore(PlaysDTD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadXML([]string{tinyDoc}); err != nil {
		t.Fatal(err)
	}
	// No Close: the store "crashes" with the load only in the WAL.
	recovered, err := OpenRecovered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.LoadXML([]string{tinyDoc}); err != nil {
		t.Fatalf("load after recovery: %v", err)
	}
	res, err := recovered.Query(`SELECT COUNT(*) FROM speech`)
	if err != nil || res.Rows[0][0].Int() != 4 {
		t.Errorf("recovered speech count = %v, %v", res, err)
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUDFIntegerArgumentsError: a non-integer where a UDF takes an
// integer (getElm's level, getElmIndex's positions, substr's start and
// length) is a typed query error, never a panic.
func TestUDFIntegerArgumentsError(t *testing.T) {
	st, err := NewStore(PlaysDTD, Config{Algorithm: XORator})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadXML([]string{tinyDoc}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT getElmIndex(speech_line, '', 'LINE', 'a', 'b') FROM speech`,
		`SELECT getElmIndex(speech_line, '', 'LINE', 1, 'b') FROM speech`,
		`SELECT getElm(speech_line, 'LINE', 'LINE', '', 'x') FROM speech`,
		`SELECT substr('hello', 'x') FROM speech`,
		`SELECT udf_substr('hello', 2, 'x') FROM speech`,
	} {
		res, err := st.Query(q)
		if err == nil || !strings.Contains(err.Error(), "expected integer argument") {
			t.Errorf("%s: got %v, %v; want an integer-argument error", q, res, err)
		}
	}
	for _, q := range []string{
		`SELECT getElmIndex(speech_line, '', 'LINE', 2, 2) FROM speech`,
		`SELECT getElm(speech_line, 'LINE', 'LINE', '', 1) FROM speech`,
		`SELECT udf_substr('hello', 2, 3) FROM speech`,
	} {
		if _, err := st.Query(q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}
