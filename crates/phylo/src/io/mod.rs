//! Sequence and tree interchange formats: FASTA, PHYLIP (the format of the
//! paper's `42_SC` input) and Newick.

pub mod fasta;
pub mod newick;
pub mod phylip;

pub use fasta::{parse_fasta, write_fasta};
pub use newick::{parse_newick, write_newick};
pub use phylip::{parse_phylip, parse_phylip_reader, write_phylip, write_phylip_to};

use crate::alignment::Alignment;
use crate::error::{PhyloError, Result};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Load an alignment from disk. The format comes from the extension
/// (`.fa`/`.fasta` vs `.phy`/`.phylip`), falling back to content sniffing
/// for anything else. An I/O failure is [`PhyloError::Io`] naming `path`;
/// malformed content surfaces as the parser's typed error with its
/// line/column, so drivers print a diagnosis and exit nonzero instead of
/// panicking on corrupt input.
pub fn load_alignment(path: &Path) -> Result<Alignment> {
    let io_err = |e: std::io::Error| PhyloError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut reader = BufReader::new(std::fs::File::open(path).map_err(io_err)?);
    let ext = path.extension().and_then(|e| e.to_str()).map(|e| e.to_ascii_lowercase());
    let is_fasta = match ext.as_deref() {
        Some("fa" | "fasta") => true,
        Some("phy" | "phylip") => false,
        // Sniff the buffered head: a leading `>` (after whitespace) means
        // FASTA. No full-file read needed to decide.
        _ => {
            let head = reader.fill_buf().map_err(io_err)?;
            head.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'>')
        }
    };
    if is_fasta {
        let mut text = String::new();
        reader.read_to_string(&mut text).map_err(io_err)?;
        parse_fasta(&text)
    } else {
        // PHYLIP streams line by line: peak memory is the encoded rows,
        // not text + rows, which matters at the 1k–10k-taxon tier.
        parse_phylip_reader(reader).map_err(|e| match e {
            PhyloError::Io { message, .. } => {
                PhyloError::Io { path: path.display().to_string(), message }
            }
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_errors_route_through_load_alignment() {
        let dir = std::env::temp_dir().join("phylo-load-aln-test");
        std::fs::create_dir_all(&dir).unwrap();

        // Missing file → Io.
        let missing = dir.join("does-not-exist.phy");
        match load_alignment(&missing) {
            Err(PhyloError::Io { path, .. }) => assert!(path.contains("does-not-exist")),
            other => panic!("expected Io error, got {other:?}"),
        }

        // Corrupt PHYLIP → typed parse error with a line number.
        let bad = dir.join("bad.phy");
        std::fs::write(&bad, "2 4\nalpha ACGTTTTT\n").unwrap();
        match load_alignment(&bad) {
            Err(PhyloError::Parse { format, line, .. }) => {
                assert_eq!(format, "PHYLIP");
                assert!(line > 0);
            }
            other => panic!("expected Parse error, got {other:?}"),
        }

        // Good FASTA sniffed by content even with a neutral extension.
        let good = dir.join("good.txt");
        std::fs::write(&good, ">a\nACGT\n>b\nACGA\n").unwrap();
        let aln = load_alignment(&good).unwrap();
        assert_eq!((aln.n_taxa(), aln.n_sites()), (2, 4));

        // Good PHYLIP by extension.
        let phy = dir.join("good.phy");
        std::fs::write(&phy, "2 4\nalpha ACGT\nbeta  ACGA\n").unwrap();
        assert_eq!(load_alignment(&phy).unwrap().n_taxa(), 2);
    }
}
