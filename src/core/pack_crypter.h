// Seals packs for the server and opens them again on the client:
//   serialize -> compress -> pad to tier -> AES-256-GCM encrypt,
// and the SHA-256 hash of the envelope is the token used by update-if
// (paper Figure 5). The server only ever stores (packID, envelope, hash).
// GCM authenticates each envelope, so a tampered pack fails at Open rather
// than deserializing garbage; the cipher is OpenSSL's EVP AES-256-GCM
// (src/crypto/crypto.h).
//
// Envelopes are versioned for online key rotation (docs/KEY_ROTATION.md):
//
//   v2:  "MCE2" || key-epoch (8 bytes, big-endian) || IV || ct || GCM tag
//   v1:  IV || ct || GCM tag                    (pre-rotation; epoch 0)
//
// The epoch header routes Open to the right epoch subkey of the keyring, and
// the same epoch — together with the table name and the caller-supplied
// context (the stored packID) — is bound into the GCM AAD. A v2 envelope
// spliced across tables, packIDs, or epochs therefore fails its tag check,
// and the unauthenticated header cannot lie about which key sealed it.
// Opening an envelope whose epoch has been retired (or never announced)
// fails with a typed KeyUnavailable instead of a misleading MAC failure.

#ifndef MINICRYPT_SRC_CORE_PACK_CRYPTER_H_
#define MINICRYPT_SRC_CORE_PACK_CRYPTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/compress/compressor.h"
#include "src/core/options.h"
#include "src/core/pack.h"
#include "src/crypto/crypto.h"
#include "src/crypto/keyring.h"

namespace minicrypt {

// Move-only: `pin` leases the sealing epoch from the keyring until the
// envelope has been durably written (callers destroy the SealedPack when the
// write returns), which is what lets rotation drain in-flight old-epoch
// seals before retiring (Keyring::WaitForDrainBelow).
struct SealedPack {
  std::string envelope;  // versioned header || IV || ciphertext || GCM tag
  std::string hash;      // SHA-256(envelope), header included
  uint64_t epoch = 0;    // key epoch the pack was sealed under
  Keyring::Pin pin;
};

class PackCrypter {
 public:
  // `keyring` is shared by every client of the customer; pack subkeys are
  // derived per epoch so packs and packIDs use independent keys.
  PackCrypter(const MiniCryptOptions& options, std::shared_ptr<Keyring> keyring);

  // Legacy convenience: wraps a bare customer key in a fresh epoch-0 keyring
  // private to this crypter. Derivations match the pre-keyring code exactly.
  PackCrypter(const MiniCryptOptions& options, const SymmetricKey& key);

  // `context` is bound into the AAD (pass the stored packID). Callers that
  // seal outside any row context (benches, index packs with their own
  // framing) may leave it empty — the table and epoch are always bound.
  Result<SealedPack> Seal(const Pack& pack, std::string_view context = {}) const;

  // GCM authenticates the whole envelope before anything is inflated. With
  // `stop` (a point read's encoded key), the decode inflates only through
  // the entry holding the first key >= *stop and returns those entries: a
  // prefix pack that answers Find(*stop) and must never be cached or sealed
  // (Pack::FromSerialized).
  Result<Pack> Open(std::string_view envelope, std::string_view context = {},
                    std::optional<std::string_view> stop = std::nullopt) const;

  // Seals a single row value (APPEND-mode puts and the encrypted baseline
  // client compress+encrypt one row at a time). Same envelope versioning,
  // AAD binds table + epoch only.
  Result<std::string> SealValue(std::string_view value) const;
  Result<std::string> OpenValue(std::string_view envelope) const;

  // Key epoch an envelope claims in its header (0 for legacy v1 envelopes).
  // Reads the unauthenticated header only — cheap, but only Open proves the
  // claim. Rotation uses this to skip packs already sealed at the target.
  static uint64_t EnvelopeEpoch(std::string_view envelope);

  const Compressor* codec() const { return codec_; }
  const std::shared_ptr<Keyring>& keyring() const { return keyring_; }

 private:
  Result<SymmetricKey> PackKeyFor(uint64_t epoch) const;
  std::string AadFor(uint64_t epoch, std::string_view context) const;

  const Compressor* codec_;
  PaddingTiers padding_;
  std::string table_;
  std::shared_ptr<Keyring> keyring_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_CORE_PACK_CRYPTER_H_
