#include "src/core/pack_crypter.h"

#include <cstring>

#include "src/obs/metrics.h"

namespace minicrypt {

namespace {

// Live compression-ratio gauge, derived from cumulative byte counters so the
// ratio converges to the run-wide value rather than the last pack's. Wire
// bytes include the padding + AES envelope, so this is the true
// bytes-on-wire vs bytes-after-decompression ratio the paper's Figure 2/9
// discussion turns on. The division happens lazily at snapshot time
// (RegisterDerivedGauge), so the per-pack hot-path cost is exactly two
// relaxed adds — no shard-summing Value() reads, no gauge read-modify-write.
struct RatioMetrics {
  Counter* raw;
  Counter* wire;

  static RatioMetrics Intern(const char* raw_name, const char* wire_name,
                             const char* gauge_name) {
    MetricsRegistry& registry = MetricsRegistry::Instance();
    Counter* raw = registry.GetCounter(raw_name);
    Counter* wire = registry.GetCounter(wire_name);
    registry.RegisterDerivedGauge(gauge_name, [raw, wire] {
      const uint64_t wire_total = wire->Value();
      return wire_total == 0 ? 0.0
                             : static_cast<double>(raw->Value()) /
                                   static_cast<double>(wire_total);
    });
    return RatioMetrics{raw, wire};
  }

  void Update(size_t raw_bytes, size_t wire_bytes) const {
    if (!MetricsRegistry::Instance().enabled()) {
      return;
    }
    raw->Add(raw_bytes);
    wire->Add(wire_bytes);
  }
};

// Envelope v2 header: magic || 8-byte big-endian key epoch. A v1 envelope
// starts with a random IV, so the 4-byte magic misclassifies a legacy
// envelope with probability 2^-32 — and even then the epoch bytes come from
// IV randomness, so the open fails closed (wrong key or KeyUnavailable),
// never silently succeeds (docs/KEY_ROTATION.md).
constexpr char kEnvelopeMagic[4] = {'M', 'C', 'E', '2'};
constexpr size_t kEnvelopeHeaderBytes = sizeof(kEnvelopeMagic) + 8;

bool HasV2Header(std::string_view envelope) {
  return envelope.size() >= kEnvelopeHeaderBytes &&
         std::memcmp(envelope.data(), kEnvelopeMagic, sizeof(kEnvelopeMagic)) == 0;
}

std::string EncodeHeader(uint64_t epoch) {
  std::string header(kEnvelopeMagic, sizeof(kEnvelopeMagic));
  for (int b = 7; b >= 0; --b) {
    header.push_back(static_cast<char>(epoch >> (8 * b)));
  }
  return header;
}

uint64_t DecodeHeaderEpoch(std::string_view envelope) {
  uint64_t epoch = 0;
  for (size_t b = 0; b < 8; ++b) {
    epoch = (epoch << 8) |
            static_cast<uint8_t>(envelope[sizeof(kEnvelopeMagic) + b]);
  }
  return epoch;
}

}  // namespace

PackCrypter::PackCrypter(const MiniCryptOptions& options, std::shared_ptr<Keyring> keyring)
    : codec_(FindCompressor(options.codec)),
      padding_(options.padding),
      table_(options.table),
      keyring_(std::move(keyring)) {}

PackCrypter::PackCrypter(const MiniCryptOptions& options, const SymmetricKey& key)
    : PackCrypter(options, Keyring::FromMaster(key)) {}

uint64_t PackCrypter::EnvelopeEpoch(std::string_view envelope) {
  return HasV2Header(envelope) ? DecodeHeaderEpoch(envelope) : 0;
}

Result<SymmetricKey> PackCrypter::PackKeyFor(uint64_t epoch) const {
  return keyring_->KeyFor(epoch, "pack:" + table_);
}

std::string PackCrypter::AadFor(uint64_t epoch, std::string_view context) const {
  // Domain prefix, then NUL-delimited table and context (stored packIDs and
  // table names never contain NUL), then the epoch — unambiguous, so no two
  // distinct (table, context, epoch) triples share an AAD encoding.
  std::string aad = "mc-aad-v1\x01";
  aad += table_;
  aad += '\0';
  aad.append(context.data(), context.size());
  aad += '\0';
  for (int b = 7; b >= 0; --b) {
    aad.push_back(static_cast<char>(epoch >> (8 * b)));
  }
  return aad;
}

Result<SealedPack> PackCrypter::Seal(const Pack& pack, std::string_view context) const {
  OBS_SPAN("pack.seal");
  // The pin is taken before reading the epoch so retirement can never win a
  // race against this seal: the drain barrier sees the pin first.
  Keyring::Pin pin = keyring_->PinCurrent();
  const uint64_t epoch = pin.epoch();
  MC_ASSIGN_OR_RETURN(const SymmetricKey pack_key, PackKeyFor(epoch));
  const std::string raw = pack.Serialize();
  std::string compressed;
  {
    OBS_SPAN("pack.compress");
    MC_ASSIGN_OR_RETURN(compressed, codec_->Compress(raw));
  }
  const std::string padded = padding_.Pad(compressed);
  std::string envelope = EncodeHeader(epoch);
  {
    OBS_SPAN("pack.encrypt");
    MC_ASSIGN_OR_RETURN(std::string body,
                        AesGcmEncrypt(pack_key, padded, AadFor(epoch, context)));
    envelope += body;
  }
  static const RatioMetrics seal_ratio =
      RatioMetrics::Intern("pack.seal.bytes_raw", "pack.seal.bytes_wire", "pack.seal.ratio");
  seal_ratio.Update(raw.size(), envelope.size());
  SealedPack out;
  out.hash = Sha256(envelope);
  out.envelope = std::move(envelope);
  out.epoch = epoch;
  out.pin = std::move(pin);
  return out;
}

Result<Pack> PackCrypter::Open(std::string_view envelope, std::string_view context,
                               std::optional<std::string_view> stop) const {
  OBS_SPAN("pack.open");
  std::string padded;
  {
    OBS_SPAN("pack.decrypt");
    if (HasV2Header(envelope)) {
      const uint64_t epoch = DecodeHeaderEpoch(envelope);
      MC_ASSIGN_OR_RETURN(const SymmetricKey pack_key, PackKeyFor(epoch));
      MC_ASSIGN_OR_RETURN(padded, AesGcmDecrypt(pack_key,
                                                envelope.substr(kEnvelopeHeaderBytes),
                                                AadFor(epoch, context)));
    } else {
      // Legacy v1 envelope: epoch 0, sealed before AAD binding existed.
      MC_ASSIGN_OR_RETURN(const SymmetricKey pack_key, PackKeyFor(0));
      MC_ASSIGN_OR_RETURN(padded, AesGcmDecrypt(pack_key, envelope));
    }
  }
  MC_ASSIGN_OR_RETURN(std::string compressed, PaddingTiers::Unpad(padded));
  std::string raw;
  uint64_t raw_size = 0;  // the whole serialization's, inflated or not
  {
    OBS_SPAN("pack.decompress");
    if (stop.has_value()) {
      Pack::PointScan scan(*stop);
      MC_ASSIGN_OR_RETURN(
          raw, codec_->DecompressPrefix(
                   compressed, [&scan](std::string_view out) { return scan.Reached(out); },
                   &raw_size));
    } else {
      MC_ASSIGN_OR_RETURN(raw, codec_->Decompress(compressed));
      raw_size = raw.size();
    }
  }
  static const RatioMetrics open_ratio =
      RatioMetrics::Intern("pack.open.bytes_raw", "pack.open.bytes_wire", "pack.open.ratio");
  open_ratio.Update(raw_size, envelope.size());
  if (raw.size() < raw_size) {
    OBS_COUNTER_ADD("pack.open.bytes_skipped", raw_size - raw.size());
  }
  // Zero-copy: the decompressed buffer moves into the pack's arena and the
  // entries slice straight into it.
  return Pack::FromSerialized(std::move(raw), stop);
}

Result<std::string> PackCrypter::SealValue(std::string_view value) const {
  const Keyring::Pin pin = keyring_->PinCurrent();
  const uint64_t epoch = pin.epoch();
  MC_ASSIGN_OR_RETURN(const SymmetricKey pack_key, PackKeyFor(epoch));
  std::string compressed;
  {
    OBS_SPAN("pack.compress");
    MC_ASSIGN_OR_RETURN(compressed, codec_->Compress(value));
  }
  OBS_SPAN("pack.encrypt");
  std::string envelope = EncodeHeader(epoch);
  MC_ASSIGN_OR_RETURN(std::string body,
                      AesGcmEncrypt(pack_key, compressed, AadFor(epoch, {})));
  envelope += body;
  return envelope;
}

Result<std::string> PackCrypter::OpenValue(std::string_view envelope) const {
  std::string compressed;
  {
    OBS_SPAN("pack.decrypt");
    if (HasV2Header(envelope)) {
      const uint64_t epoch = DecodeHeaderEpoch(envelope);
      MC_ASSIGN_OR_RETURN(const SymmetricKey pack_key, PackKeyFor(epoch));
      MC_ASSIGN_OR_RETURN(compressed, AesGcmDecrypt(pack_key,
                                                    envelope.substr(kEnvelopeHeaderBytes),
                                                    AadFor(epoch, {})));
    } else {
      MC_ASSIGN_OR_RETURN(const SymmetricKey pack_key, PackKeyFor(0));
      MC_ASSIGN_OR_RETURN(compressed, AesGcmDecrypt(pack_key, envelope));
    }
  }
  OBS_SPAN("pack.decompress");
  return codec_->Decompress(compressed);
}

}  // namespace minicrypt
