package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/storage"
)

// paperPatients is the DiScRi cohort size the paper reports.
const paperPatients = 900

// cohortSeed is the generator seed of every cohort the benchmark serves:
// the paper-default DiScRi seed, so the planted Fig 5 and Fig 6 shapes
// are the paper's. The request seed varies the queries, not the data.
var cohortSeed = discri.DefaultConfig().Seed

// cohortFiles are the raw and transformed table files of one cohort.
type cohortFiles struct {
	Patients    int    `json:"patients"`
	Attendances int    `json:"attendances"`
	FlatAttrs   int    `json:"flat_attributes"`
	Seed        int64  `json:"seed"`
	RawPath     string `json:"-"`
	FlatPath    string `json:"-"`
}

// sourceDigest hashes the repository's Go sources and module files, so
// cached cohorts are regenerated when the generator or ETL code changes,
// and so results name the code they measured even outside a git
// checkout.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// prepareCohort generates the cohort of the given size and runs the
// program's ETL pipeline over it, caching both tables under dir keyed by
// size, seed and source digest. Generation is benchmark input
// preparation, not part of any measured set-up.
func prepareCohort(dir string, patients int, digest string) (cohortFiles, error) {
	cf := cohortFiles{Patients: patients, Seed: cohortSeed}
	stem := filepath.Join(dir, fmt.Sprintf("cohort-%d-%d-%s", patients, cohortSeed, digest[:16]))
	cf.RawPath, cf.FlatPath = stem+".raw.ddgt", stem+".flat.ddgt"
	if _, err := os.Stat(cf.FlatPath); err != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return cf, err
		}
		cfg := discri.DefaultConfig()
		cfg.Patients = patients
		raw, err := discri.Generate(cfg)
		if err != nil {
			return cf, err
		}
		if err := writeTableAtomic(cf.RawPath, raw); err != nil {
			return cf, err
		}
		flat, err := core.NewDiScRiPipeline().Run(raw)
		if err != nil {
			return cf, err
		}
		if err := writeTableAtomic(cf.FlatPath, flat); err != nil {
			return cf, err
		}
	}
	return cf, nil
}

func writeTableAtomic(path string, t *storage.Table) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := t.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readTable(path string) (*storage.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return storage.ReadBinary(io.Reader(f))
}

// loadOracle reads the transformed table of a cohort into the oracle's
// own column copy and fills in the cohort's shape.
func loadOracle(cf *cohortFiles) (*oracleTable, error) {
	flat, err := readTable(cf.FlatPath)
	if err != nil {
		return nil, err
	}
	cf.Attendances, cf.FlatAttrs = flat.Len(), flat.Schema().Len()
	o, err := newOracleTable(flat, oracleColumns())
	flat = nil
	debug.FreeOSMemory() // the full table is garbage now; do not hold it beside the server
	return o, err
}
