// Command diagnose runs tester-side cause-effect diagnosis with a compiled
// dictionary produced by `sdd -save-dict`, or with a published dictionary
// artifact produced by `sdd -publish` (the format is auto-detected): it
// reduces an observed response file to a signature and prints the matching
// fault candidates.
//
// Usage:
//
//	diagnose -dict s208.sdd -responses observed.txt [-top 5]
//
// The responses file holds one output vector (0/1 string, one bit per
// circuit output) per test, in test order — exactly what automatic test
// equipment logs per applied pattern.
//
// When the signature matches no modeled fault exactly, -top N switches to
// nearest-match ranking (Hamming distance over the signature space, the
// same core.RankRows path cmd/sddserve and internal/diagnose use) instead
// of the default no-match failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sddict/internal/cli"
	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/faultfs"
)

func main() {
	cli.Main("diagnose", run)
}

// errNoMatch reports a defect outside the modeled fault universe; mapped to
// a runtime (non-usage) failure exit.
type errNoMatch struct{}

func (errNoMatch) Error() string {
	return "no exact match: the defect does not behave like any modeled fault (use -top N for nearest matches)"
}

func run(ctx context.Context) error {
	var (
		dictPath = flag.String("dict", "", "compiled dictionary (sdd -save-dict) or published artifact (sdd -publish)")
		respPath = flag.String("responses", "", "observed responses, one 0/1 output vector per test")
		topK     = flag.Int("top", 0, "when no exact match, rank the N nearest fault candidates instead of failing (0 = off)")
	)
	flag.Parse()
	if *dictPath == "" || *respPath == "" {
		return cli.Usagef("need -dict and -responses")
	}

	dict, names, err := loadDictionary(*dictPath)
	if err != nil {
		return err
	}
	fmt.Printf("dictionary: %s, %d faults, %d tests, %d outputs, %d payload bits\n",
		dict.Kind, len(dict.Rows), dict.NumTests, dict.Outputs, dict.SizeBits())

	rf, err := os.Open(*respPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	observed, err := dictio.ParseResponses(rf, dict.Outputs)
	if err != nil {
		return fmt.Errorf("%s: %w", *respPath, err)
	}

	sig, err := dict.Signature(observed)
	if err != nil {
		return err
	}
	failing := sig.PopCount()
	fmt.Printf("signature: %d/%d tests flag \"different\"\n", failing, dict.NumTests)

	cands := dict.Candidates(sig)
	if len(cands) == 0 {
		if *topK <= 0 {
			return errNoMatch{}
		}
		fmt.Printf("no exact match; %d nearest candidates by signature distance:\n", *topK)
		for _, r := range dict.Rank(sig, *topK) {
			fmt.Printf("  #%d distance %d%s\n", r.Fault, r.Distance, nameSuffix(names, r.Fault))
		}
		return nil
	}
	fmt.Printf("candidate faults (%d):", len(cands))
	for _, c := range cands {
		fmt.Printf(" #%d", c)
	}
	fmt.Println()
	for _, c := range cands {
		if s := nameSuffix(names, c); s != "" {
			fmt.Printf("  #%d%s\n", c, s)
		}
	}
	return nil
}

// loadDictionary opens either dictionary container: a published artifact
// (sniffed by magic, CRC-verified, carrying the fault-class table) or a
// bare compiled dictionary (no names).
func loadDictionary(path string) (*core.Compiled, []string, error) {
	isArtifact, err := dictio.SniffFile(faultfs.OS, path)
	if err != nil {
		return nil, nil, err
	}
	if isArtifact {
		art, err := dictio.Load(path)
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("artifact: %s circuit, %s tests, checksum %08x\n",
			art.Header.Circuit, art.Header.TestSet, art.Checksum)
		return art.Dict, art.Header.Faults, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	dict, err := core.ReadCompiled(f)
	if err != nil {
		return nil, nil, err
	}
	return dict, nil, nil
}

// nameSuffix formats fault i's name from the artifact's fault-class
// table, or "" for bare compiled dictionaries.
func nameSuffix(names []string, i int) string {
	if i < 0 || i >= len(names) {
		return ""
	}
	return " " + names[i]
}
